// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time and prints, as its last line, a JSON
// object with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1):
//
//	bash perfbench/run.sh --workload sweep-live --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for what each metric means on each):
//
//	sweep-live      exact live sweep of 4 workloads x 5 schemes, 2 workers
//	replay-sampled  exact + interval-sampled corpus replay, 3 workloads x 5 schemes
//	serve-fleet     two in-process hpserved backends behind a fleet coordinator
//
// The seed draws every input the workload generates: job order, run
// windows, sampling schedules and the fresh/repeat request mix.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// bench is one benchmark workload.
type bench interface {
	// setup performs one complete set-up from cold caches.
	setup(tr *tracer, t *tally) error
	// teardown stops whatever setup started.
	teardown()
	// phase runs the timed part for about d, counting operations and
	// failed output checks in t.
	phase(d time.Duration, tr *tracer, t *tally) (*phaseResult, error)
	// verify runs the output checks that need the timed part's outputs
	// and nothing running; it is not timed.
	verify(t *tally)
	// report prints the workload's named metrics and model report.
	report(p *phaseResult)
}

// phaseResult is what a timed phase measured.
type phaseResult struct {
	wall    time.Duration
	ops     []float64 // latency of each completed operation, ms
	kinds   []string  // kind of each operation, for kindQuantile
	work    float64   // units of work done; len(ops) unless set
	batches []float64 // latency of each completed batch, ms
	alloc   uint64    // heap bytes allocated during the phase
	instr   float64   // simulated instructions (simulation workloads)
	root    *span     // the phase's root span when traced
	spans   []span
}

// endTrace closes the phase's root span and keeps the spans recorded so
// far; untraced phases (nil tr) keep none.
func (p *phaseResult) endTrace(tr *tracer, root *active) {
	root.end()
	if tr == nil {
		return
	}
	p.spans = tr.finished()
	for _, s := range p.spans {
		if s.ID == root.s.ID {
			p.root = &s
		}
	}
}

// units is the work the phase completed: its operations, unless the
// workload counts work in other units.
func (p *phaseResult) units() float64 {
	if p.work > 0 {
		return p.work
	}
	return float64(len(p.ops))
}

func (p *phaseResult) opsPerSec() float64 { return p.units() / p.wall.Seconds() }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "sweep-live, replay-sampled or serve-fleet")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 20, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		work     = flag.String("work", "", "work directory (created; its run subdirectory is removed at exit)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, work string) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if work == "" {
		work = os.TempDir()
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var b bench
	setups := 5
	switch workload {
	case "sweep-live":
		b = newSweepLive(seed)
	case "replay-sampled":
		b = newReplaySampled(seed, dir)
	case "serve-fleet":
		b = newServeFleet(seed, dir)
		setups = 9 // set-up is short, so more samples cost little
	default:
		return fmt.Errorf("unknown --workload %q (want sweep-live, replay-sampled or serve-fleet)", workload)
	}

	var t tally
	var setupS []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			b.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(nil, &t); err != nil {
			b.teardown()
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	runtime.GC()
	fmt.Printf("workload %s seed %d: set-up p50 %.3f s of %.3f s\n", workload, seed, median(setupS), setupS)

	var out output
	d := time.Duration(seconds * float64(time.Second))
	if trace == 0 {
		p, err := b.phase(d, nil, &t)
		b.teardown()
		if err != nil {
			return err
		}
		b.verify(&t)
		b.report(p)
		out.Metrics = endToEnd(p, setupS)
	} else {
		m, err := tracedRun(workload, seed, b, d, &t, dir, work)
		if err != nil {
			return err
		}
		out.Metrics = m
	}
	out.Attempted, out.Failed = t.attempted.Load(), t.failed.Load()
	out.Correct = out.Failed == 0
	if out.Attempted < 1 {
		return fmt.Errorf("no operation completed")
	}
	printMetrics(out)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd derives the end-to-end metrics from an untraced phase.
func endToEnd(p *phaseResult, setupS []float64) map[string]metric {
	return map[string]metric{
		"setup_s":         {median(setupS), "s"},
		"ops_per_s":       {p.opsPerSec(), "1/s"},
		"op_p50_ms":       {kindQuantile(p.ops, p.kinds, 0.5), "ms"},
		"op_p90_ms":       {kindQuantile(p.ops, p.kinds, 0.9), "ms"},
		"batch_p50_ms":    {median(p.batches), "ms"},
		"alloc_mb_per_op": {float64(p.alloc) / 1e6 / p.units(), "MB"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
}

// tracedRun runs the phase untraced and then traced, half the time each
// (their difference is the tracing overhead), checks that the blocking
// path's self times add up to the traced phase, runs the layer probes,
// and writes every span out.
func tracedRun(workload string, seed int64, b bench, d time.Duration, t *tally, dir, work string) (map[string]metric, error) {
	plain, err := b.phase(d/2, nil, t)
	if err != nil {
		b.teardown()
		return nil, err
	}
	tr := newTracer()
	p, err := b.phase(d/2, tr, t)
	b.teardown()
	if err != nil {
		return nil, err
	}
	b.verify(t)
	m := map[string]metric{}
	m["trace.overhead_pct"] = metric{100 * (1 - p.opsPerSec()/plain.opsPerSec()), "%"}
	t.attempted.Add(1)
	t.check(printPath(workload, *p.root, blockingPath(*p.root, children(p.spans)), p.spans))
	lm, err := probeLayers(workload, seed, b, tr, t, dir)
	if err != nil {
		return nil, err
	}
	for k, v := range lm {
		m[k] = v
	}
	spans := tr.finished()
	m["trace.spans"] = metric{float64(len(spans)), "count"}
	path := filepath.Join(work, "spans-"+workload+".jsonl")
	if err := writeJSONL(path, spans); err != nil {
		return nil, err
	}
	fmt.Printf("%d spans written to %s\n", len(spans), path)
	return m, nil
}

// printMetrics lists every reported metric by name with its unit.
func printMetrics(out output) {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("metrics (attempted %d, failed %d):\n", out.Attempted, out.Failed)
	fmt.Printf("  %-36s %14.4f ratio\n", "error_rate", float64(out.Failed)/float64(out.Attempted))
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// allocated returns the heap bytes allocated so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
