package fleet

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hprefetch/internal/harness"
	"hprefetch/internal/service"
)

// goldenRun and goldenSweep are the submits held by
// testdata/journal-v7.wal, a journal written by AppendSubmit (the run
// as job-000001, the sweep as swp-000002): the run request sets every
// RunRequest field, the sweep is a coordinator submit.
var (
	goldenRun = service.RunRequest{
		Workload: "gin", Scheme: "GHB", Experiment: "fig9",
		WarmInstr: 50_000, MeasureInstr: 100_000,
		Workloads: []string{"gin", "echo"}, Quick: true,
		Fault: "tag-flip:0.002:7", TimeoutMS: 60_000, MaxRetries: 2,
		TracePath: "/var/lib/hp/traces/gin.hpt", Sample: "1000,2000,3000,5",
		NoCorpus: true, PFDegree: 4, Governed: true,
	}
	goldenSweep = SweepSpec{
		Workloads: []string{"gin", "echo"}, Schemes: []string{"FDIP", "Hierarchical"},
		Quick: true, WarmInstr: 500_000, MeasureInstr: 1_500_000,
	}
)

// TestJournalGoldenDecodes holds the journal contract across builds: a
// journal written earlier must still decode to the requests it
// recorded. A change that renames or drops a request field, or
// reshapes the record layout, fails here; adding a field does not.
func TestJournalGoldenDecodes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "journal-v7.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// OpenJournal compacts in place; work on a copy.
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	jl, pending, maxSeq, err := service.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if len(pending) != 2 || maxSeq != 2 {
		t.Fatalf("pending %d jobs, max seq %d; want 2 and 2", len(pending), maxSeq)
	}
	run, sweep := pending[0], pending[1]
	if run.ID != "job-000001" || run.Kind != "run" || sweep.ID != "swp-000002" || sweep.Kind != "sweep" {
		t.Fatalf("journaled jobs %s/%s and %s/%s", run.ID, run.Kind, sweep.ID, sweep.Kind)
	}
	var req service.RunRequest
	if err := service.DecodeRequest(run.Req, &req); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, goldenRun) {
		t.Errorf("run submit decodes to\n %+v\nwant\n %+v", req, goldenRun)
	}
	var spec SweepSpec
	if err := service.DecodeRequest(sweep.Req, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, goldenSweep) {
		t.Errorf("sweep submit decodes to\n %+v\nwant\n %+v", spec, goldenSweep)
	}
}

// TestRunLocalResolvesLikeABackend: RunLocal and a backend handed the
// sweep's job requests must resolve identical RunConfigs. The memo key
// covers the whole RunConfig, so once RunLocal has run the sweep, every
// backend job must be a cache hit in the process-wide harness Runner.
func TestRunLocalResolvesLikeABackend(t *testing.T) {
	harness.DropCache()
	spec := tinySweep()
	spec.Quick = true
	ctx := context.Background()
	if _, err := RunLocal(ctx, spec); err != nil {
		t.Fatal(err)
	}
	misses := harness.CacheStats().Misses
	cl := newClient(startBackend(t).url(), nil)
	for _, key := range spec.Keys() {
		w, sc, _ := SplitKey(key)
		v, err := cl.SubmitRun(ctx, spec.jobRequest(w, sc))
		if err == nil {
			v, err = cl.Await(ctx, v.ID)
		}
		if err != nil || v.State != service.JobDone {
			t.Fatalf("%s on the backend: %v %s %s", key, err, v.State, v.Error)
		}
	}
	if got := harness.CacheStats().Misses; got != misses {
		t.Fatalf("backend jobs simulated %d runs RunLocal had not: their RunConfigs differ", got-misses)
	}
}

// TestReplayUnknownSweepFieldFailsSweep: a journaled sweep naming a
// field this build does not know fails terminally, naming the field,
// and is journaled finished so it never replays again.
func TestReplayUnknownSweepFieldFailsSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.wal")
	jl, _, _, err := service.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.AppendSubmit("swp-000001", "sweep", map[string]any{"workloads": []string{"gin"}, "future_axis": 2}); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := fastFleetConfig("http://127.0.0.1:1")
	cfg.JournalPath, cfg.ProbeInterval = path, -1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw, ok := c.Sweep("swp-000001")
	if !ok {
		t.Fatal("journaled sweep not registered")
	}
	v := awaitSweep(t, sw, time.Second)
	if v.State != service.JobFailed || !strings.Contains(v.Error, "future_axis") {
		t.Fatalf("sweep %s %q, want failed naming future_axis", v.State, v.Error)
	}
	c.Close()
	jl, pending, _, err := service.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if len(pending) != 0 {
		t.Fatalf("failed sweep still pending: %+v", pending)
	}
}
