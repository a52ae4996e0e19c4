package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hprefetch/internal/corpus"
	"hprefetch/internal/harness"
	"hprefetch/internal/workloads"
)

// replayWorkloads are recorded once per set-up and replayed from the
// corpus; their builds are small, so live interpretation and building
// do almost nothing in the timed part. They are listed from the
// costliest run to the cheapest.
var replayWorkloads = []string{"mysql-ycsb", "chain-burst", "gin"}

// replaySampled evaluates every (workload, scheme) point twice per
// pass — an exact replay and an interval-sampled replay of the same
// stream extent — both resolved through a content-addressed corpus.
type replaySampled struct {
	dir            string
	exact, sampled harness.RunConfig
	jobs           []job
	digests        *repeats

	n         int               // set-ups done
	corpusDir string            // the current set-up's corpus
	objects   []string          // its object paths, evicted at the next set-up
	recDigest map[string]string // FDIP digest of each recording run

	mu                   sync.Mutex
	exactMS, sampledMS   float64 // summed run latencies of the two kinds
	exactIPC, sampledIPC map[job]float64
	detailed             []float64 // sampled runs' detailed fractions
}

func newReplaySampled(seed int64, dir string) *replaySampled {
	rng := rand.New(rand.NewSource(seed))
	exact := harness.DefaultRunConfig()
	exact.WarmInstr = 1_000_000
	exact.MeasureInstr = 3_000_000 + uint64(rng.Intn(20_000))
	sampled := exact
	sampled.Sample = harness.SampleSpec{WarmInstr: 20_000, MeasureInstr: 50_000, SkipInstr: 250_000, Seed: seed}
	return &replaySampled{
		dir:        dir,
		exact:      exact,
		sampled:    sampled,
		jobs:       shuffledJobs(replayWorkloads, rng),
		digests:    newRepeats(),
		exactIPC:   map[job]float64{},
		sampledIPC: map[job]float64{},
	}
}

// setup builds, records each workload once (an FDIP live run teed to a
// trace file), ingests the recordings into a fresh corpus and decodes
// each through one corpus-resolved FDIP replay, whose digest must equal
// the recording run's.
func (b *replaySampled) setup(tr *tracer, t *tally) error {
	workloads.DropCache()
	for _, p := range b.objects {
		harness.EvictTrace(p)
	}
	if b.corpusDir != "" {
		if err := os.RemoveAll(b.corpusDir); err != nil {
			return err
		}
	}
	b.n++
	b.objects = nil
	b.corpusDir = filepath.Join(b.dir, fmt.Sprintf("corpus-%d", b.n))
	b.recDigest = map[string]string{}
	if err := buildAll(replayWorkloads, tr); err != nil {
		return err
	}

	recs := make([]string, len(replayWorkloads))
	digests := make([]string, len(replayWorkloads))
	err := parallel(len(replayWorkloads), func(i int) error {
		rc := b.exact
		rc.RecordPath = filepath.Join(b.dir, fmt.Sprintf("rec-%d-%s.hpt", b.n, replayWorkloads[i]))
		s := tr.start("harness.RunUncached[record]", nil, runSeq.Add(1))
		res, err := harness.RunUncached(replayWorkloads[i], harness.SchemeFDIP, rc)
		s.end()
		if err != nil {
			return err
		}
		recs[i], digests[i] = rc.RecordPath, res.Stats.Digest()
		return nil
	})
	if err != nil {
		return err
	}
	store, err := corpus.Open(b.corpusDir)
	if err != nil {
		return err
	}
	for i, w := range replayWorkloads {
		s := tr.start("corpus.Ingest", nil, runSeq.Add(1))
		e, _, err := store.Ingest(recs[i])
		s.end()
		if err != nil {
			return err
		}
		if err := os.Remove(recs[i]); err != nil {
			return err
		}
		b.objects = append(b.objects, store.ObjectPath(e.Key))
		b.recDigest[w] = digests[i]
	}
	return parallel(len(replayWorkloads), func(i int) error {
		w := replayWorkloads[i]
		rc := b.exact
		rc.CorpusDir = b.corpusDir
		s := tr.start("harness.RunUncached[decode]", nil, runSeq.Add(1))
		res, err := harness.RunUncached(w, harness.SchemeFDIP, rc)
		s.end()
		if err != nil {
			return err
		}
		t.attempted.Add(1)
		t.check(errors.Join(fromCorpus(res), sameDigest(w+" FDIP replay vs recording", res.Stats.Digest(), b.recDigest[w])))
		return nil
	})
}

func fromCorpus(res *harness.Result) error {
	if res.TraceSource != "corpus" {
		return fmt.Errorf("run read its stream from %q, want the corpus", res.TraceSource)
	}
	return nil
}

func (b *replaySampled) teardown() {}

func (b *replaySampled) phase(d time.Duration, tr *tracer, t *tally) (*phaseResult, error) {
	exact, sampled := b.exact, b.sampled
	exact.CorpusDir, sampled.CorpusDir = b.corpusDir, b.corpusDir
	instr := float64(exact.WarmInstr + exact.MeasureInstr)
	window := fmt.Sprintf("@%d", exact.MeasureInstr)
	p := runPasses(b.jobs, d, tr, func(j job, run int64, parent *active) (float64, error) {
		s := tr.start("harness.RunUncached[exact]", parent, run)
		t0 := time.Now()
		ex, err := harness.RunUncached(j.workload, j.scheme, exact)
		exMS := float64(time.Since(t0)) / 1e6
		s.end()
		if err != nil {
			return 0, err
		}
		s = tr.start("harness.RunUncached[sampled]", parent, run)
		t0 = time.Now()
		sa, err := harness.RunUncached(j.workload, j.scheme, sampled)
		saMS := float64(time.Since(t0)) / 1e6
		s.end()
		if err != nil {
			return 0, err
		}
		b.mu.Lock()
		b.exactMS += exMS
		b.sampledMS += saMS
		if _, ok := b.exactIPC[j]; !ok {
			b.exactIPC[j], b.sampledIPC[j] = ex.Stats.IPC(), sa.Stats.IPC()
			b.detailed = append(b.detailed, sa.Sample.DetailedFrac)
		}
		b.mu.Unlock()
		errs := []error{
			fromCorpus(ex), fromCorpus(sa), identities(ex.Stats), identities(sa.Stats),
			b.digests.check(j.String()+window+" exact", ex.Stats.Digest()),
			b.digests.check(j.String()+window+" sampled", sa.Stats.Digest()),
		}
		if j.scheme == harness.SchemeFDIP {
			errs = append(errs, sameDigest(j.String()+" exact replay vs recording", ex.Stats.Digest(), b.recDigest[j.workload]))
		}
		return instr, errors.Join(errs...)
	}, t)
	return p, nil
}

func (b *replaySampled) verify(t *tally) {}

// sampleErrPct is the mean relative IPC error of the sampled runs
// against the exact runs over the (workload, scheme) points.
func (b *replaySampled) sampleErrPct() float64 {
	var errs []float64
	for j, ex := range b.exactIPC {
		errs = append(errs, 100*math.Abs(b.sampledIPC[j]-ex)/ex)
	}
	return mean(errs)
}

func (b *replaySampled) report(p *phaseResult) {
	instr := float64(b.exact.WarmInstr + b.exact.MeasureInstr)
	n := float64(len(p.ops))
	exactShare := b.exactMS / (b.exactMS + b.sampledMS)
	fmt.Printf("replay-sampled: %d passes of %d (exact, sampled) replay pairs (%d+%d instructions, sample %s), %d workers\n",
		len(p.batches), len(b.jobs), b.exact.WarmInstr, b.exact.MeasureInstr, b.sampled.Sample, workers)
	fmt.Printf("  sim_minstr_per_s      %10.3f Minstr/s\n", n*instr/1e6/(p.wall.Seconds()*exactShare))
	fmt.Printf("  sampled_minstr_per_s  %10.3f Minstr/s\n", n*instr/1e6/(p.wall.Seconds()*(1-exactShare)))
	fmt.Printf("  sample_ipc_err_pct    %10.3f %%\n", b.sampleErrPct())
	fmt.Printf("  alloc_mb_per_minstr   %10.3f MB/Minstr\n", float64(p.alloc)/1e6/(2*n*instr/1e6))
	fmt.Printf("  peak_rss_mb           %10.1f MB\n", peakRSSMB())
	fmt.Printf("  pair latency          %s\n", timing(p.ops, "ms"))
	fmt.Printf("  pass latency          %s\n", timing(p.batches, "ms"))
	fmt.Printf("  sampled detailed fraction %.3f\n", mean(b.detailed))
	exact := b.exact
	exact.CorpusDir = b.corpusDir
	modelReport(exact, replayWorkloads, b.exactIPC)
}
