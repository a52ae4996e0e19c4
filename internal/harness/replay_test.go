package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hprefetch/internal/fault"
	"hprefetch/internal/tracefile"
)

// recordGoldenTraces records one trace per workload covering the golden
// warm+measure window, into a fresh temp dir.
func recordGoldenTraces(t *testing.T, rc RunConfig) string {
	t.Helper()
	dir := t.TempDir()
	for _, w := range rc.Workloads {
		if _, err := RecordTrace(w, filepath.Join(dir, w+TraceExt), rc); err != nil {
			t.Fatalf("recording %s: %v", w, err)
		}
	}
	return dir
}

// TestReplayMatchesLiveGolden is the tentpole guarantee: a replayed run
// produces byte-identical canonical stats — and therefore the identical
// StatsDigest — as its live counterpart, for every scheme, across the
// golden workload matrix. The digests are also checked against the
// committed golden file, tying replay to the repository's long-term
// behaviour contract.
func TestReplayMatchesLiveGolden(t *testing.T) {
	rc := goldenRunConfig()
	dir := recordGoldenTraces(t, rc)

	golden := map[[2]string]string{}
	if data, err := os.ReadFile(filepath.FromSlash(goldenPath)); err == nil {
		var entries []goldenEntry
		if err := json.Unmarshal(data, &entries); err != nil {
			t.Fatalf("parsing %s: %v", goldenPath, err)
		}
		for _, e := range entries {
			golden[[2]string{e.Workload, e.Scheme}] = e.Digest
		}
	}

	for _, w := range rc.Workloads {
		for _, s := range goldenSchemes() {
			live, err := runOne(context.Background(), w, s, rc)
			if err != nil {
				t.Fatalf("live %s/%s: %v", w, s, err)
			}
			rcR := rc
			rcR.TracePath = filepath.Join(dir, w+TraceExt)
			replay, err := runOne(context.Background(), w, s, rcR)
			if err != nil {
				t.Fatalf("replay %s/%s: %v", w, s, err)
			}
			if lc, rp := live.Stats.Canonical(), replay.Stats.Canonical(); lc != rp {
				t.Errorf("%s/%s: replayed canonical stats differ from live:\n--- live\n%s--- replay\n%s", w, s, lc, rp)
			}
			if want, ok := golden[[2]string{w, string(s)}]; ok && replay.Stats.Digest() != want {
				t.Errorf("%s/%s: replay digest %s != committed golden %s", w, s, replay.Stats.Digest(), want)
			}
		}
	}
}

// TestFig1IdenticalFromTrace: the stage-footprint view (Figure 1)
// computed from a recorded trace must equal the live one — per-stage
// attribution rides in the trace, not just the event stream.
func TestFig1IdenticalFromTrace(t *testing.T) {
	rc := goldenRunConfig()
	rc.Workloads = []string{"gin"}
	dir := recordGoldenTraces(t, rc)

	live, err := Fig1StageFootprints(rc)
	if err != nil {
		t.Fatal(err)
	}
	rcR := rc
	rcR.TraceDir = dir
	replayed, err := Fig1StageFootprints(rcR)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Errorf("Figure 1 from trace differs from live:\n--- live\n%s--- replay\n%s", live, replayed)
	}
}

// TestRecordTeeAndCrossSchemeReplay: RecordPath tees a live run without
// perturbing it, and — because the trace captures the stream, not the
// scheme — a trace teed from an FDIP run replays any other scheme with
// live-identical stats.
func TestRecordTeeAndCrossSchemeReplay(t *testing.T) {
	rc := goldenRunConfig()
	const w = "gin"
	path := filepath.Join(t.TempDir(), w+TraceExt)

	rcRec := rc
	rcRec.RecordPath = path
	teed, err := runOne(context.Background(), w, SchemeFDIP, rcRec)
	if err != nil {
		t.Fatal(err)
	}
	live, err := runOne(context.Background(), w, SchemeFDIP, rc)
	if err != nil {
		t.Fatal(err)
	}
	if teed.Stats.Canonical() != live.Stats.Canonical() {
		t.Error("teeing the event stream perturbed the simulation")
	}
	info, err := tracefile.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Indexed || info.Truncated {
		t.Fatalf("teed trace not sealed: %+v", info)
	}

	liveHier, err := runOne(context.Background(), w, SchemeHier, rc)
	if err != nil {
		t.Fatal(err)
	}
	rcR := rc
	rcR.TracePath = path
	replayHier, err := runOne(context.Background(), w, SchemeHier, rcR)
	if err != nil {
		t.Fatal(err)
	}
	if lc, rp := liveHier.Stats.Canonical(), replayHier.Stats.Canonical(); lc != rp {
		t.Errorf("Hierarchical replayed from an FDIP-teed trace differs from live:\n--- live\n%s--- replay\n%s", lc, rp)
	}
}

// TestRecordTeePullDistance pins how far a run pulls from its source:
// the trace a RecordPath run tees holds exactly the events the machine
// pulled (fetch plus FTQ lookahead) and then the recorder's fixed tail.
// A lookahead window that read further ahead than the FTQ needs would
// grow every recorded trace silently; here it changes the summary and
// the file hash instead.
func TestRecordTeePullDistance(t *testing.T) {
	rc := goldenRunConfig()
	path := filepath.Join(t.TempDir(), "gin"+TraceExt)
	rc.RecordPath = path
	if _, err := runOne(context.Background(), "gin", SchemeFDIP, rc); err != nil {
		t.Fatal(err)
	}
	info, err := tracefile.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	const (
		wantEvents = 72393
		wantInstr  = 637058
		wantReq    = 1
		wantSHA    = "072cb293dbb362bb6b742433010a712b090390a4d1156be4aefae4dbad19adc1"
	)
	if info.Events != wantEvents || info.Instructions != wantInstr || info.Requests != wantReq {
		t.Errorf("teed trace holds %d events, %d instructions, %d requests; want %d, %d, %d",
			info.Events, info.Instructions, info.Requests, wantEvents, wantInstr, wantReq)
	}
	if got := hex.EncodeToString(sum[:]); got != wantSHA {
		t.Errorf("teed trace sha256 %s, want %s", got, wantSHA)
	}
}

// TestReplayValidation covers the refusal paths: foreign traces,
// missing files, and configurations that cannot honour the trace's
// clean-stream promise.
func TestReplayValidation(t *testing.T) {
	rc := goldenRunConfig()
	rc.Workloads = []string{"gin"}
	dir := recordGoldenTraces(t, rc)
	ginTrace := filepath.Join(dir, "gin"+TraceExt)

	t.Run("wrong workload", func(t *testing.T) {
		sub := rc
		sub.TracePath = ginTrace
		if _, err := runOne(context.Background(), "tidb-tpcc", SchemeFDIP, sub); err == nil {
			t.Fatal("replaying a gin trace as tidb-tpcc succeeded")
		}
	})
	t.Run("missing file", func(t *testing.T) {
		sub := rc
		sub.TracePath = filepath.Join(dir, "nope.hpt")
		if _, err := runOne(context.Background(), "gin", SchemeFDIP, sub); err == nil {
			t.Fatal("replaying a missing trace succeeded")
		}
	})
	t.Run("replay with fault", func(t *testing.T) {
		sub := rc
		sub.TracePath = ginTrace
		sub.Fault = fault.Config{Class: fault.ClassTagFlip, Rate: 0.01, Seed: 1}
		if _, err := runOne(context.Background(), "gin", SchemeFDIP, sub); err == nil {
			t.Fatal("replay combined with fault injection succeeded")
		}
	})
	t.Run("record with replay", func(t *testing.T) {
		sub := rc
		sub.TracePath = ginTrace
		sub.RecordPath = filepath.Join(dir, "out.hpt")
		if _, err := runOne(context.Background(), "gin", SchemeFDIP, sub); err == nil {
			t.Fatal("simultaneous record and replay succeeded")
		}
	})
	t.Run("record with fault", func(t *testing.T) {
		sub := rc
		sub.RecordPath = filepath.Join(dir, "out2.hpt")
		sub.Fault = fault.Config{Class: fault.ClassTagFlip, Rate: 0.01, Seed: 1}
		if _, err := runOne(context.Background(), "gin", SchemeFDIP, sub); err == nil {
			t.Fatal("recording a faulted stream succeeded")
		}
	})
}

// TestTraceDirFallback: workloads without a trace under TraceDir run
// live, with results identical to an all-live configuration.
func TestTraceDirFallback(t *testing.T) {
	rc := goldenRunConfig()
	recRC := rc
	recRC.Workloads = []string{"gin"} // record gin only; tidb-tpcc falls back
	dir := recordGoldenTraces(t, recRC)

	sub := rc
	sub.TraceDir = dir
	for _, w := range rc.Workloads {
		live, err := runOne(context.Background(), w, SchemeFDIP, rc)
		if err != nil {
			t.Fatal(err)
		}
		mixed, err := runOne(context.Background(), w, SchemeFDIP, sub)
		if err != nil {
			t.Fatalf("%s under TraceDir: %v", w, err)
		}
		if live.Stats.Canonical() != mixed.Stats.Canonical() {
			t.Errorf("%s: TraceDir run differs from live", w)
		}
	}
}

// TestTruncatedTraceFailsRun: a trace shorter than the requested window
// fails the run with a typed exhaustion error instead of hanging.
func TestTruncatedTraceFailsRun(t *testing.T) {
	short := goldenRunConfig()
	short.WarmInstr = 50_000
	short.MeasureInstr = 50_000
	short.Workloads = []string{"gin"}
	dir := recordGoldenTraces(t, short)

	long := goldenRunConfig()
	long.TracePath = filepath.Join(dir, "gin"+TraceExt)
	_, err := runOne(context.Background(), "gin", SchemeFDIP, long)
	if err == nil {
		t.Fatal("600k-instruction replay of a 100k-instruction trace succeeded")
	}
}
