// Command hpbench measures the repository's headline performance
// numbers and gates them against a committed baseline.
//
// It runs the same measurements as the root bench suite's
// BenchmarkReplayVsLive and BenchmarkSimulatorThroughput, plus the
// full-sweep sampled-vs-exact comparison, in-process (no `go test
// -bench` parsing), and emits them as a small JSON document:
//
//	hpbench -out BENCH_8.json              # write a new baseline
//	hpbench -check BENCH_8.json            # re-measure, gate ratios at 10%
//	hpbench -check BENCH_8.json -raw raw.json  # also dump per-iteration times
//
// Time-based metrics (ns/instr, instr/s, MB) are machine-dependent and
// informational: the committed file records the reference machine and
// -check reports them without judging. The *ratio* metrics —
// replay_speedup (batch replay vs live interpretation, same window) and
// sample_speedup (interval-sampled replay vs exact live on the default
// full-sweep window) — divide two wall times from the same process on
// the same machine, so they transfer across hosts; -check fails when a
// measured ratio drops more than -tolerance below the committed value,
// or below its hard floor (2x for replay, 5x for sampling). See
// EXPERIMENTS.md ("The benchmark baseline") for the schema.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hprefetch/internal/harness"
)

// benchSchema identifies the BENCH_*.json format.
const benchSchema = "hpbench/v1"

// floors are the acceptance minimums for the gated ratios, independent
// of any committed baseline.
var floors = map[string]float64{
	"replay_speedup": 2.0,
	"sample_speedup": 5.0,
}

// BenchFile is the committed baseline document.
type BenchFile struct {
	Schema string `json:"schema"`
	// GoVersion and NumCPU record the reference environment; they are
	// not compared.
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// Metrics holds every measured value by name.
	Metrics map[string]float64 `json:"metrics"`
	// Gated lists the Metrics keys -check compares under the tolerance
	// (higher is better for all of them).
	Gated []string `json:"gated"`
}

// rawRecord is one measurement's full detail for the -raw artifact.
type rawRecord struct {
	Name    string    `json:"name"`
	Instr   uint64    `json:"instructions"`
	TimesNS []int64   `json:"times_ns"`
	BestNS  int64     `json:"best_ns"`
	Derived []string  `json:"derived,omitempty"`
	When    time.Time `json:"when"`
}

func main() {
	var (
		out       = flag.String("out", "", "write a new baseline to this path")
		check     = flag.String("check", "", "measure and gate against the baseline at this path")
		raw       = flag.String("raw", "", "also write per-iteration raw measurements to this path")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional drop of a gated ratio below the baseline")
		iters     = flag.Int("iters", 5, "timed iterations per measurement (best-of)")
	)
	flag.Parse()
	if (*out == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "hpbench: exactly one of -out or -check is required")
		os.Exit(2)
	}

	metrics, raws, err := measure(*iters)
	if err != nil {
		fatal(err)
	}
	if *raw != "" {
		data, _ := json.MarshalIndent(raws, "", "  ")
		if err := os.WriteFile(*raw, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	doc := BenchFile{
		Schema:    benchSchema,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Metrics:   metrics,
		Gated:     []string{"replay_speedup", "sample_speedup"},
	}
	for _, name := range doc.Gated {
		fmt.Printf("%-28s %8.2f (floor %.1fx)\n", name, metrics[name], floors[name])
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		if _, gated := floors[name]; !gated {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-28s %8.2f (informational)\n", name, metrics[name])
	}

	if *out != "" {
		data, _ := json.MarshalIndent(doc, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *out)
		return
	}

	base, err := readBaseline(*check)
	if err != nil {
		fatal(err)
	}
	failed := false
	for _, name := range base.Gated {
		want, ok := base.Metrics[name]
		if !ok {
			fatal(fmt.Errorf("baseline %s gates %q but has no such metric", *check, name))
		}
		got := metrics[name]
		limit := want * (1 - *tolerance)
		// The floor is also noise-tolerant: measurement jitter on a busy
		// host must not fail a build whose true ratio clears the floor.
		floorLimit := floors[name] * (1 - *tolerance)
		switch {
		case got < floorLimit:
			fmt.Printf("FAIL %s: measured %.2fx below hard floor %.1fx (limit %.2fx)\n",
				name, got, floors[name], floorLimit)
			failed = true
		case got < limit:
			fmt.Printf("FAIL %s: measured %.2fx, baseline %.2fx, limit %.2fx (tolerance %.0f%%)\n",
				name, got, want, limit, *tolerance*100)
			failed = true
		default:
			fmt.Printf("ok   %s: measured %.2fx vs baseline %.2fx (limit %.2fx)\n", name, got, want, limit)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func readBaseline(path string) (BenchFile, error) {
	var f BenchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != benchSchema {
		return f, fmt.Errorf("%s: schema %q, this build reads %q", path, f.Schema, benchSchema)
	}
	return f, nil
}

// timeRun measures fn best-of-n after one untimed warm-up (which also
// populates the process-level build and trace caches).
func timeRun(name string, instr uint64, n int, fn func() error) (rawRecord, error) {
	rec := rawRecord{Name: name, Instr: instr, When: time.Now()}
	if err := fn(); err != nil {
		return rec, fmt.Errorf("%s: %w", name, err)
	}
	best := int64(1 << 62)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return rec, fmt.Errorf("%s: %w", name, err)
		}
		d := time.Since(t0).Nanoseconds()
		rec.TimesNS = append(rec.TimesNS, d)
		if d < best {
			best = d
		}
	}
	rec.BestNS = best
	return rec, nil
}

// measure produces every metric of the baseline document.
func measure(iters int) (map[string]float64, []rawRecord, error) {
	metrics := map[string]float64{}
	var raws []rawRecord

	dir, err := os.MkdirTemp("", "hpbench")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	// Replay vs live: the BenchmarkReplayVsLive pair — the same
	// (workload, scheme, window) from the live engine and from a
	// decoded recorded trace, whose columns the machine reads in place.
	rc := harness.DefaultRunConfig()
	rc.Workloads = []string{"gin"}
	rc.WarmInstr = 500_000
	rc.MeasureInstr = 3_500_000
	pairInstr := rc.WarmInstr + rc.MeasureInstr
	path := filepath.Join(dir, "gin"+harness.TraceExt)
	if _, err := harness.RecordTrace("gin", path, rc); err != nil {
		return nil, nil, err
	}
	if st, err := os.Stat(path); err == nil {
		metrics["trace_file_mb"] = float64(st.Size()) / 1e6
	}

	live, err := timeRun("live", pairInstr, iters, func() error {
		_, err := harness.RunUncached("gin", harness.SchemeFDIP, rc)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	raws = append(raws, live)

	rcR := rc
	rcR.TracePath = path
	replay, err := timeRun("replay", pairInstr, iters, func() error {
		_, err := harness.RunUncached("gin", harness.SchemeFDIP, rcR)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	raws = append(raws, replay)
	metrics["live_ns_per_instr"] = float64(live.BestNS) / float64(pairInstr)
	metrics["replay_ns_per_instr"] = float64(replay.BestNS) / float64(pairInstr)
	metrics["replay_speedup"] = float64(live.BestNS) / float64(replay.BestNS)

	// Simulator throughput: the BenchmarkSimulatorThroughput window —
	// the full stack (engine, front-end, hierarchy, Hierarchical
	// Prefetcher) in simulated instructions per wall second.
	rcT := harness.DefaultRunConfig()
	rcT.Workloads = []string{"gin"}
	rcT.WarmInstr = 500_000
	rcT.MeasureInstr = 2_000_000
	thrInstr := rcT.WarmInstr + rcT.MeasureInstr
	thr, err := timeRun("throughput", thrInstr, iters, func() error {
		_, err := harness.RunUncached("gin", harness.SchemeHier, rcT)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	raws = append(raws, thr)
	metrics["sim_minstr_per_sec"] = float64(thrInstr) / (float64(thr.BestNS) / 1e9) / 1e6

	// Governed-GHB throughput on the same window: the feedback governor
	// samples stats once per interval, so adaptive throttling should cost
	// roughly nothing over a static run. Informational (not gated) — it
	// exists so a regression that makes the governor hot shows up in the
	// bench report before anyone chases it in a profile.
	rcG := rcT
	rcG.Governed = true
	gov, err := timeRun("governed-ghb", thrInstr, iters, func() error {
		_, err := harness.RunUncached("gin", harness.SchemeGHB, rcG)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	raws = append(raws, gov)
	metrics["governed_ghb_minstr_per_sec"] = float64(thrInstr) / (float64(gov.BestNS) / 1e9) / 1e6

	// Sampled vs exact on the full default sweep window (4M warm + 8M
	// measure): the exact protocol a user would otherwise run (live,
	// detailed throughout) against the durable pipeline this PR adds —
	// record once, then interval-sample the replay.
	rcF := harness.DefaultRunConfig()
	rcF.Workloads = []string{"gin"}
	sweepInstr := rcF.WarmInstr + rcF.MeasureInstr
	pathF := filepath.Join(dir, "gin-sweep"+harness.TraceExt)
	if _, err := harness.RecordTrace("gin", pathF, rcF); err != nil {
		return nil, nil, err
	}
	exact, err := timeRun("sweep-exact-live", sweepInstr, iters, func() error {
		_, err := harness.RunUncached("gin", harness.SchemeHier, rcF)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	raws = append(raws, exact)

	rcS := rcF
	rcS.TracePath = pathF
	rcS.Sample = harness.SampleSpec{WarmInstr: 50_000, MeasureInstr: 100_000, SkipInstr: 800_000, Seed: 1}
	sampled, err := timeRun("sweep-sampled-replay", sweepInstr, iters, func() error {
		_, err := harness.RunUncached("gin", harness.SchemeHier, rcS)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	raws = append(raws, sampled)
	metrics["sweep_exact_ns_per_instr"] = float64(exact.BestNS) / float64(sweepInstr)
	metrics["sweep_sampled_ns_per_instr"] = float64(sampled.BestNS) / float64(sweepInstr)
	metrics["sample_speedup"] = float64(exact.BestNS) / float64(sampled.BestNS)

	return metrics, raws, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpbench:", err)
	os.Exit(1)
}
