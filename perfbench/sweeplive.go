package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hprefetch/internal/harness"
	"hprefetch/internal/workloads"
)

// The simulation workloads sweep the paper's five evaluated schemes.
var schemes = []harness.Scheme{
	harness.SchemeFDIP, harness.SchemeEFetch, harness.SchemeMANA, harness.SchemeEIP, harness.SchemeHier,
}

// workers is the parallelism of every simulation workload: the
// reference host has two CPUs.
const workers = 2

// runSeq numbers operations; spans of one operation share its number.
var runSeq atomic.Int64

// buildAll builds names from cold on up to workers goroutines, the way
// a parallel sweep's first runs would.
func buildAll(names []string, tr *tracer) error {
	return parallel(len(names), func(i int) error {
		s := tr.start("workloads.Build", nil, runSeq.Add(1))
		defer s.end()
		_, err := workloads.Build(names[i])
		return err
	})
}

// parallel runs fn(0..n-1) on up to workers goroutines and returns
// each goroutine's first error, joined.
func parallel(n int, fn func(i int) error) error {
	next := atomic.Int64{}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := fn(i); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// job is one (workload, scheme) point of a simulation sweep.
type job struct {
	workload string
	scheme   harness.Scheme
}

func (j job) String() string { return j.workload + "/" + string(j.scheme) }

// shuffledJobs is the workload x scheme cross product, workload by
// workload in the order given, with the schemes of each workload in a
// seeded order. Listing the costliest workloads first keeps the end of a
// pass, where one worker may idle, short whatever the seed.
func shuffledJobs(names []string, rng *rand.Rand) []job {
	var jobs []job
	for _, w := range names {
		group := make([]job, 0, len(schemes))
		for _, s := range schemes {
			group = append(group, job{w, s})
		}
		rng.Shuffle(len(group), func(i, k int) { group[i], group[k] = group[k], group[i] })
		jobs = append(jobs, group...)
	}
	return jobs
}

// runPasses repeats passes over jobs until d has elapsed: each pass is
// a batch that workers drain in parallel, and the phase ends with the
// pass that crosses d. do runs one job and returns its simulated
// instructions.
func runPasses(jobs []job, d time.Duration, tr *tracer, do func(j job, run int64, parent *active) (float64, error), t *tally) *phaseResult {
	p := &phaseResult{}
	var mu sync.Mutex
	a0 := allocated()
	root := tr.start("phase", nil, 0)
	t0 := time.Now()
	for time.Since(t0) < d {
		pass := tr.start("pass", root, 0)
		b0 := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			// Lanes open before their goroutines start, so a late start
			// shows as the lane's own time rather than a gap in the pass.
			lane := tr.start("lane", pass, 0)
			go func() {
				defer wg.Done()
				defer lane.end()
				for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
					t.attempted.Add(1)
					s0 := time.Now()
					instr, err := do(jobs[i], runSeq.Add(1), lane)
					ms := float64(time.Since(s0)) / 1e6
					if err != nil {
						t.fail(fmt.Errorf("%s: %w", jobs[i], err))
						continue
					}
					mu.Lock()
					p.ops = append(p.ops, ms)
					p.kinds = append(p.kinds, jobs[i].String())
					p.instr += instr
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		pass.end()
		p.batches = append(p.batches, float64(time.Since(b0))/1e6)
	}
	p.wall = time.Since(t0)
	p.alloc = allocated() - a0
	p.endTrace(tr, root)
	return p
}

// sweepLive is the researcher's sweep: exact live runs of four
// workloads under five schemes on two workers, from a cold build cache.
type sweepLive struct {
	rc      harness.RunConfig
	jobs    []job
	digests *repeats
	mu      sync.Mutex
	ipc     map[job]float64 // first run's IPC per job, for the model report
}

// sweepLiveWorkloads span the footprints from small (gin) to large
// (tidb-tpcc); chain-burst runs through the microservice interleaver.
// They are listed from the costliest run to the cheapest.
var sweepLiveWorkloads = []string{"tidb-tpcc", "mysql-ycsb", "chain-burst", "gin"}

func newSweepLive(seed int64) *sweepLive {
	rng := rand.New(rand.NewSource(seed))
	rc := harness.DefaultRunConfig()
	rc.WarmInstr = 1_000_000
	// A seeded offset of under 1% makes every seed a distinct input
	// while keeping the work per run the same.
	rc.MeasureInstr = 3_000_000 + uint64(rng.Intn(20_000))
	return &sweepLive{
		rc:      rc,
		jobs:    shuffledJobs(sweepLiveWorkloads, rng),
		digests: newRepeats(),
		ipc:     map[job]float64{},
	}
}

func (b *sweepLive) setup(tr *tracer, t *tally) error {
	workloads.DropCache()
	return buildAll(sweepLiveWorkloads, tr)
}

func (b *sweepLive) teardown() {}

func (b *sweepLive) phase(d time.Duration, tr *tracer, t *tally) (*phaseResult, error) {
	instr := float64(b.rc.WarmInstr + b.rc.MeasureInstr)
	p := runPasses(b.jobs, d, tr, func(j job, run int64, parent *active) (float64, error) {
		s := tr.start("harness.RunUncached", parent, run)
		res, err := harness.RunUncached(j.workload, j.scheme, b.rc)
		s.end()
		if err != nil {
			return 0, err
		}
		b.mu.Lock()
		if _, ok := b.ipc[j]; !ok {
			b.ipc[j] = res.Stats.IPC()
		}
		b.mu.Unlock()
		return instr, errors.Join(identities(res.Stats), b.digests.check(fmt.Sprintf("%s@%d", j, b.rc.MeasureInstr), res.Stats.Digest()))
	}, t)
	return p, nil
}

func (b *sweepLive) verify(t *tally) {}

func (b *sweepLive) report(p *phaseResult) {
	fmt.Printf("sweep-live: %d passes of %d live runs (%d+%d instructions each), %d workers\n",
		len(p.batches), len(b.jobs), b.rc.WarmInstr, b.rc.MeasureInstr, workers)
	fmt.Printf("  sim_minstr_per_s      %10.3f Minstr/s\n", p.instr/1e6/p.wall.Seconds())
	fmt.Printf("  alloc_mb_per_minstr   %10.3f MB/Minstr\n", float64(p.alloc)/1e6/(p.instr/1e6))
	fmt.Printf("  peak_rss_mb           %10.1f MB\n", peakRSSMB())
	fmt.Printf("  run latency           %s\n", timing(p.ops, "ms"))
	fmt.Printf("  sweep pass latency    %s\n", timing(p.batches, "ms"))
	modelReport(b.rc, sweepLiveWorkloads, b.ipc)
}
