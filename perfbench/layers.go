package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hprefetch/internal/callgraph"
	"hprefetch/internal/corpus"
	"hprefetch/internal/harness"
	"hprefetch/internal/linker"
	"hprefetch/internal/loader"
	"hprefetch/internal/program"
	"hprefetch/internal/sim"
	"hprefetch/internal/trace"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

// The layer probes time each layer from outside, by calling its public
// functions directly on fixed inputs: the same inputs for every seed, so
// the exact counts among them repeat exactly. Every span they record
// carries the layer's function name.

// The simulator and storage probes use a probe window of gin's stream;
// timings repeat probeReps times (prefetchReps for the prefetchers,
// whose differences are small) and report the median.
const (
	probeWarm    = 1_000_000
	probeMeasure = 3_000_000
	probeInstr   = probeWarm + probeMeasure
	probeReps    = 5
	prefetchReps = 9
)

// layerSet collects per-layer metrics.
type layerSet map[string]metric

func (m layerSet) add(name, unit string, v float64) { m[name] = metric{v, unit} }

// timed runs fn under a span and returns its wall time.
func timed(tr *tracer, name string, fn func() error) (time.Duration, error) {
	s := tr.start(name, nil, runSeq.Add(1))
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.end()
	return d, err
}

// medianOf runs fn reps times and returns the median wall time.
func medianOf(tr *tracer, name string, reps int, fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		d, err := timed(tr, name, fn)
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// probeLayers measures every layer's metrics. The service, fleet and
// result-cache metrics come from the serve-fleet phase when that is the
// workload traced, and from a short serve-fleet session otherwise.
func probeLayers(workload string, seed int64, b bench, tr *tracer, t *tally, dir string) (layerSet, error) {
	m := layerSet{}
	steps := []func(layerSet, *tracer, string) error{probeBuild, probeInterp, probeStorageSimPrefetch, probeHarness}
	for _, step := range steps {
		runtime.GC()
		if err := step(m, tr, dir); err != nil {
			return nil, err
		}
	}
	sf, ok := b.(*serveFleet)
	if !ok {
		sf = newServeFleet(seed, dir)
		if err := sf.setup(tr, t); err != nil {
			sf.teardown()
			return nil, fmt.Errorf("serve session: %w", err)
		}
		_, err := sf.phase(3*time.Second, tr, t)
		sf.teardown()
		if err != nil {
			return nil, err
		}
	}
	for k, v := range sf.layer {
		m[k] = v
	}
	return m, nil
}

// probeBuild times each build stage over the sweep-live workload set,
// the build's allocation, and how long a build waits when two builds
// run at once.
func probeBuild(m layerSet, tr *tracer, dir string) error {
	var gen, analyze, link, load time.Duration
	solo := map[string]time.Duration{}
	for _, name := range sweepLiveWorkloads {
		w, err := workloads.Get(name)
		if err != nil {
			return err
		}
		generate := w.Generator
		if generate == nil {
			generate = func() (*program.Program, error) { return program.Generate(w.Config) }
		}
		var p *program.Program
		d, err := timed(tr, "program.Generate", func() (err error) { p, err = generate(); return })
		if err != nil {
			return err
		}
		gen += d
		var l *linker.Linked
		if d, err = timed(tr, "linker.Link", func() (err error) { l, err = linker.Link(p, linker.Options{}); return }); err != nil {
			return err
		}
		link += d
		// Link runs the analysis internally; timing it again on the
		// linked program isolates its share.
		if d, err = timed(tr, "callgraph.Analyze", func() error {
			_, err := callgraph.Analyze(callgraph.FromProgram(p), callgraph.Options{Threshold: callgraph.DefaultThreshold})
			return err
		}); err != nil {
			return err
		}
		analyze += d
		d, _ = timed(tr, "loader.LoadLinked", func() error { loader.LoadLinked(p, l.Image); return nil })
		load += d
	}
	m.add("program.generate_s", "s", gen.Seconds())
	m.add("callgraph.analyze_s", "s", analyze.Seconds())
	m.add("linker.link_s", "s", link.Seconds())
	m.add("loader.load_s", "s", load.Seconds())

	runtime.GC()
	workloads.DropCache()
	a0 := allocated()
	for _, name := range sweepLiveWorkloads {
		d, err := timed(tr, "workloads.Build", func() error { _, err := workloads.Build(name); return err })
		if err != nil {
			return err
		}
		solo[name] = d
	}
	m.add("workloads.build_alloc_mb", "MB", float64(allocated()-a0)/1e6)

	// The largest and the second-largest build, started together.
	pair := []string{"tidb-tpcc", "mysql-ycsb"}
	runtime.GC()
	workloads.DropCache()
	walls := make([]time.Duration, len(pair))
	errs := make([]error, len(pair))
	var wg sync.WaitGroup
	for i, name := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			walls[i], errs[i] = timed(tr, "workloads.Build[concurrent]", func() error { _, err := workloads.Build(name); return err })
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	wait := walls[0] + walls[1] - solo[pair[0]] - solo[pair[1]]
	m.add("workloads.build_wait_s", "s", wait.Seconds())
	workloads.DropCache()
	return nil
}

// chunkEvents is how many events one timed chunk of Next calls pulls.
const chunkEvents = 1 << 16

// nextNsPerEvent pulls chunks of events from eng, one span per chunk,
// and returns the median chunk's time per event and the instructions
// per event over all chunks.
func nextNsPerEvent(tr *tracer, name string, eng workloads.Engine, chunks int) (ns, instrPerEvent float64) {
	var per []float64
	i0 := eng.Instructions()
	for c := 0; c < chunks; c++ {
		d, _ := timed(tr, name, func() error {
			for k := 0; k < chunkEvents; k++ {
				eng.Next()
			}
			return nil
		})
		per = append(per, float64(d)/chunkEvents)
	}
	return median(per), float64(eng.Instructions()-i0) / float64(chunks*chunkEvents)
}

// probeInterp times live interpretation: the plain engine on gin and
// the microservice interleaver on chain-burst.
func probeInterp(m layerSet, tr *tracer, dir string) error {
	gin, err := workloads.Build("gin")
	if err != nil {
		return err
	}
	ns, ipe := nextNsPerEvent(tr, "trace.Engine.Next", trace.New(gin.Loaded, gin.Workload.TraceSeed), 16)
	m.add("trace.ns_per_event", "ns", ns)
	m.add("trace.instr_per_event", "instr", ipe)
	chain, err := workloads.Build("chain-burst")
	if err != nil {
		return err
	}
	ns, _ = nextNsPerEvent(tr, "microsvc.Engine.Next", chain.NewEngine(), 16)
	m.add("microsvc.ns_per_event", "ns", ns)
	return nil
}

// probeStorageSimPrefetch records gin's probe window, then times the
// trace storage layers on it, the simulator's live, batch and skip
// paths, and each prefetcher's replay cost over FDIP's.
func probeStorageSimPrefetch(m layerSet, tr *tracer, dir string) error {
	gin, err := workloads.Build("gin")
	if err != nil {
		return err
	}
	rc := harness.DefaultRunConfig()
	rc.WarmInstr, rc.MeasureInstr = probeWarm, probeMeasure
	path := filepath.Join(dir, "probe-gin.hpt")
	var sum tracefile.Summary
	d, err := medianOf(tr, "harness.RecordTrace", 3, func() (err error) { sum, err = harness.RecordTrace("gin", path, rc); return })
	if err != nil {
		return err
	}
	m.add("tracefile.record_s", "s", d.Seconds())
	m.add("tracefile.bits_per_instr", "bit", float64(sum.Bytes*8)/float64(sum.Instructions))
	var ld *tracefile.Loaded
	if d, err = medianOf(tr, "tracefile.Load", 3, func() (err error) { ld, err = tracefile.Load(path); return }); err != nil {
		return err
	}
	m.add("tracefile.decode_ns_per_event", "ns", float64(d)/float64(ld.Events()))
	n := 0
	if d, err = medianOf(tr, "corpus.Ingest", 3, func() error {
		n++
		store, err := corpus.Open(filepath.Join(dir, fmt.Sprintf("probe-corpus-%d", n)))
		if err != nil {
			return err
		}
		_, _, err = store.Ingest(path)
		return err
	}); err != nil {
		return err
	}
	m.add("corpus.ingest_s", "s", d.Seconds())

	prm := sim.DefaultParams()
	// Live path: FDIP with no evaluated prefetcher over the engine.
	mach, err := sim.New(prm, trace.New(gin.Loaded, gin.Workload.TraceSeed), nil)
	if err != nil {
		return err
	}
	allocs0 := mallocs()
	d, err = timed(tr, "sim.Machine.Run[live]", func() error { return mach.Run(probeInstr) })
	if err != nil {
		return err
	}
	m.add("sim.live_ns_per_instr", "ns", float64(d)/probeInstr)
	m.add("sim.live_allocs_per_kblock", "allocs", float64(mallocs()-allocs0)/(float64(mach.BlockSeq())/1000))

	// Batch path over the decoded recording.
	if mach, err = sim.New(prm, ld.Replay(), nil); err != nil {
		return err
	}
	allocs0 = mallocs()
	if d, err = timed(tr, "sim.Machine.Run[batch]", func() error { return mach.Run(probeInstr) }); err != nil {
		return err
	}
	m.add("sim.batch_ns_per_instr", "ns", float64(d)/probeInstr)
	m.add("sim.batch_allocs_per_kblock", "allocs", float64(mallocs()-allocs0)/(float64(mach.BlockSeq())/1000))
	st := mach.Stats()
	m.add("sim.blocks", "count", float64(mach.BlockSeq()))
	m.add("sim.l1i_demand_misses", "count", float64(st.L1IDemandMisses))
	m.add("sim.btb_miss_redirects", "count", float64(st.BTBMissRedirects))
	m.add("sim.tlb_misses", "count", float64(st.TLBMisses))

	if mach, err = sim.New(prm, ld.Replay(), nil); err != nil {
		return err
	}
	if d, err = timed(tr, "sim.Machine.SkipFunctional", func() error { return mach.SkipFunctional(probeInstr) }); err != nil {
		return err
	}
	m.add("sim.skip_ns_per_instr", "ns", float64(d)/probeInstr)

	// Each scheme's replay of the probe window through the harness,
	// against FDIP's: the harness's own cost is the same for every
	// scheme and cancels. The schemes take turns within each repetition,
	// so a drift in host speed hits them alike.
	replay := rc
	replay.TracePath = path
	times := map[harness.Scheme][]float64{}
	last := map[harness.Scheme]*sim.Stats{}
	for rep := 0; rep < prefetchReps; rep++ {
		for _, scheme := range schemes {
			var res *harness.Result
			d, err := timed(tr, "harness.RunUncached["+string(scheme)+"]", func() (err error) {
				res, err = harness.RunUncached("gin", scheme, replay)
				return err
			})
			if err == nil {
				err = identities(res.Stats)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", scheme, err)
			}
			times[scheme] = append(times[scheme], float64(d))
			last[scheme] = res.Stats
		}
	}
	fmt.Println("prefetcher replay over gin's probe window:")
	fdip := median(times[harness.SchemeFDIP])
	for _, scheme := range schemes[1:] {
		st := last[scheme]
		pre := "prefetch." + string(scheme)
		unbalanced := float64(st.PFUseful+st.PFUseless+st.LatePF) - float64(st.PFIssued)
		m.add(pre+".ns_per_instr", "ns", (median(times[scheme])-fdip)/probeInstr)
		m.add(pre+".issued", "count", float64(st.PFIssued))
		m.add(pre+".accuracy", "ratio", st.PFAccuracy())
		m.add(pre+".unbalanced", "count", unbalanced)
		fmt.Printf("  %-13s accuracy %.4f of %d issued (useful %d, useless %d, late %d; unbalanced %+.0f)\n",
			scheme, st.PFAccuracy(), st.PFIssued, st.PFUseful, st.PFUseless, st.LatePF, unbalanced)
	}
	return nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// hpbenchIters is the best-of count for the hpbench ratios.
const hpbenchIters = 3

// probeHarness times the harness's fixed cost per run, the sampled
// detailed fraction, and cmd/hpbench's two gated ratios with its
// definitions: best-of-n wall times of the same windows.
func probeHarness(m layerSet, tr *tracer, dir string) error {
	tiny := harness.DefaultRunConfig()
	tiny.WarmInstr, tiny.MeasureInstr = 1_000, 1_000
	for _, scheme := range schemes {
		d, err := medianOf(tr, "harness.RunUncached[fixed]", probeReps, func() error {
			_, err := harness.RunUncached("gin", scheme, tiny)
			return err
		})
		if err != nil {
			return err
		}
		m.add("harness.run_fixed_ms."+string(scheme), "ms", float64(d)/1e6)
	}

	rc := harness.DefaultRunConfig()
	rc.Workloads = []string{"gin"}
	rc.WarmInstr, rc.MeasureInstr = probeWarm, probeMeasure
	rc.TracePath = filepath.Join(dir, "probe-gin.hpt")
	rc.Sample = harness.SampleSpec{WarmInstr: 20_000, MeasureInstr: 50_000, SkipInstr: 250_000, Seed: 1}
	res, err := harness.RunUncached("gin", harness.SchemeFDIP, rc)
	if err != nil {
		return err
	}
	m.add("harness.sample_detailed_frac", "ratio", res.Sample.DetailedFrac)

	// replay_speedup: live over batch replay, FDIP on gin, 500k+3.5M.
	rp := harness.DefaultRunConfig()
	rp.Workloads = []string{"gin"}
	rp.WarmInstr, rp.MeasureInstr = 500_000, 3_500_000
	path := filepath.Join(dir, "hpbench-gin.hpt")
	if _, err := harness.RecordTrace("gin", path, rp); err != nil {
		return err
	}
	live, err := bestOf(tr, "harness.RunUncached[hpbench live]", func() error {
		_, err := harness.RunUncached("gin", harness.SchemeFDIP, rp)
		return err
	})
	if err != nil {
		return err
	}
	rp.TracePath = path
	replay, err := bestOf(tr, "harness.RunUncached[hpbench replay]", func() error {
		_, err := harness.RunUncached("gin", harness.SchemeFDIP, rp)
		return err
	})
	if err != nil {
		return err
	}
	m.add("harness.replay_speedup", "ratio", live/replay)

	// sample_speedup: exact live over sampled replay, Hierarchical on
	// gin's full default window.
	full := harness.DefaultRunConfig()
	full.Workloads = []string{"gin"}
	pathF := filepath.Join(dir, "hpbench-gin-sweep.hpt")
	if _, err := harness.RecordTrace("gin", pathF, full); err != nil {
		return err
	}
	exact, err := bestOf(tr, "harness.RunUncached[hpbench exact]", func() error {
		_, err := harness.RunUncached("gin", harness.SchemeHier, full)
		return err
	})
	if err != nil {
		return err
	}
	full.TracePath = pathF
	full.Sample = harness.SampleSpec{WarmInstr: 50_000, MeasureInstr: 100_000, SkipInstr: 800_000, Seed: 1}
	sampled, err := bestOf(tr, "harness.RunUncached[hpbench sampled]", func() error {
		_, err := harness.RunUncached("gin", harness.SchemeHier, full)
		return err
	})
	if err != nil {
		return err
	}
	m.add("harness.sample_speedup", "ratio", exact/sampled)
	return nil
}

// bestOf is hpbench's timing rule: one untimed warm-up, then the best
// of hpbenchIters runs, in nanoseconds.
func bestOf(tr *tracer, name string, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	best := 0.0
	for i := 0; i < hpbenchIters; i++ {
		d, err := timed(tr, name, fn)
		if err != nil {
			return 0, err
		}
		if i == 0 || float64(d) < best {
			best = float64(d)
		}
	}
	return best, nil
}
