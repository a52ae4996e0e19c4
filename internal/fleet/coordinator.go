package fleet

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hprefetch/internal/harness"
	"hprefetch/internal/service"
	"hprefetch/internal/xrand"
)

// Config sizes a Coordinator. Backends is the only required field.
type Config struct {
	// Backends are the hpserved base URLs the fleet dispatches to.
	Backends []string
	// Vnodes is the consistent-hash virtual-node count per backend
	// (default 64).
	Vnodes int

	// JournalPath enables coordinator crash recovery through the same
	// write-ahead journal format hpserved uses: sweep submissions,
	// per-job backend assignments, and sweep completions are logged, and
	// a restarted coordinator re-runs the sweeps that were in flight —
	// preferring the journaled backend per job, whose result cache the
	// lost life already warmed. Empty disables durability.
	JournalPath string

	// Retry shapes the redispatch backoff (decorrelated jitter, same
	// policy the server applies to its own retries); RetrySeed fixes the
	// jitter stream.
	Retry     service.RetryPolicy
	RetrySeed uint64
	// MaxAttempts bounds dispatch attempts per job across all backends
	// (default 4).
	MaxAttempts int

	// HedgeAfter launches a second dispatch of a still-running job on
	// the next healthy backend after this delay; first terminal result
	// wins, the loser is cancelled. 0 disables hedging.
	HedgeAfter time.Duration

	// QuorumFraction double-runs this fraction of jobs (deterministic
	// per-key sample seeded by QuorumSeed) on a second backend and fails
	// the job loudly when the two stats digests disagree — a continuous
	// cross-machine reproducibility audit. 0 disables; fleets of one
	// backend skip quorum regardless.
	QuorumFraction float64
	QuorumSeed     uint64

	// ProbeInterval is the health-probe period feeding each backend's
	// circuit breaker (default 2s; negative disables probing).
	ProbeInterval time.Duration

	// MaxInFlight bounds concurrently dispatched jobs (default
	// 2×backends).
	MaxInFlight int

	// Breaker knobs for per-backend health (fleet-tuned defaults:
	// window 16, min 3, threshold 0.6, cooldown 3s — a fleet should
	// re-route faster than an admission controller sheds).
	BreakerWindow     int
	BreakerMinSamples int
	BreakerThreshold  float64
	BreakerCooldown   time.Duration

	// HTTP overrides the backend HTTP client (tests).
	HTTP *http.Client
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * len(c.Backends)
		if c.MaxInFlight < 2 {
			c.MaxInFlight = 2
		}
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 16
	}
	if c.BreakerMinSamples <= 0 {
		c.BreakerMinSamples = 3
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 0.6
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 3 * time.Second
	}
	return c
}

// Coordinator shards sweeps across the backend fleet. Create with New,
// expose via Handler, stop with Close.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	clients map[string]*Client
	health  map[string]*service.Breaker
	metrics *Metrics
	journal *service.Journal
	start   time.Time

	nextID   atomic.Uint64
	retryMu  sync.Mutex
	retryRNG *xrand.RNG

	mu     sync.Mutex
	sweeps map[string]*Sweep
	order  []string

	sem       chan struct{}
	ctx       context.Context
	cancel    context.CancelFunc
	draining  atomic.Bool
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds a Coordinator over the configured backends, replays its
// journal (when configured) — restarting every sweep that was in flight
// when the previous life died — and starts the health prober.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ring := NewRing(cfg.Backends, cfg.Vnodes)
	if len(ring.Backends()) == 0 {
		return nil, fmt.Errorf("fleet: no backends configured")
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:      cfg,
		ring:     ring,
		clients:  map[string]*Client{},
		health:   map[string]*service.Breaker{},
		metrics:  &Metrics{},
		retryRNG: xrand.New(xrand.Mix(cfg.RetrySeed, 0xF1EE7)),
		sweeps:   map[string]*Sweep{},
		sem:      make(chan struct{}, cfg.MaxInFlight),
		ctx:      ctx,
		cancel:   cancel,
		start:    time.Now(),
	}
	for _, b := range ring.Backends() {
		c.clients[b] = newClient(b, cfg.HTTP)
		c.health[b] = service.NewBreaker(cfg.BreakerWindow, cfg.BreakerMinSamples,
			cfg.BreakerThreshold, cfg.BreakerCooldown)
	}

	if cfg.JournalPath != "" {
		jl, pending, maxSeq, err := service.OpenJournal(cfg.JournalPath)
		if err != nil {
			cancel()
			return nil, err
		}
		c.journal = jl
		c.nextID.Store(maxSeq)
		for _, rj := range pending {
			if rj.Kind != "sweep" {
				// A foreign journal (hpserved's own) — refuse rather than
				// silently dropping someone's jobs.
				jl.Close() //nolint:errcheck // refusing startup anyway
				cancel()
				return nil, fmt.Errorf("fleet: journal %s holds a pending %q job (%s); it belongs to an hpserved instance, not a coordinator",
					cfg.JournalPath, rj.Kind, rj.ID)
			}
			var spec SweepSpec
			err := service.DecodeRequest(rj.Req, &spec)
			if err == nil {
				err = spec.Validate()
			}
			if err != nil {
				// The journaled spec no longer decodes or validates (a
				// field from a newer build, a renamed workload): fail the
				// sweep terminally, and journal that so it never replays.
				c.failReplayed(rj.ID, fmt.Sprintf("journal replay: %v", err))
				continue
			}
			sw := c.newSweep(rj.ID, spec, rj.Assignments)
			c.metrics.SweepsReplayed.Add(1)
			c.startSweep(sw)
		}
	}

	if cfg.ProbeInterval > 0 {
		c.wg.Add(1)
		go c.prober()
	}
	return c, nil
}

// Metrics exposes the coordinator's counters (tests and embedders).
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// Sweep returns a sweep by id (embedders awaiting replayed sweeps).
func (c *Coordinator) Sweep(id string) (*Sweep, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.sweeps[id]
	return sw, ok
}

// Sweeps lists every known sweep id, submission order.
func (c *Coordinator) Sweeps() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// Close stops dispatching, cancels in-flight work, and seals the
// journal. Like hpserved, sweeps cut short by Close are NOT journaled
// terminal: they stay pending and replay when a coordinator reopens the
// same journal.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		c.draining.Store(true)
		c.cancel()
	})
	c.wg.Wait()
	if c.journal != nil {
		c.journal.Close() //nolint:errcheck // sticky error already counted
	}
}

// prober feeds each backend's breaker with periodic health checks, so
// a dead backend opens its breaker even when no dispatch is touching
// it, and a recovered backend's half-open probe can succeed without
// risking a real job.
func (c *Coordinator) prober() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			for b, br := range c.health {
				// Allow gates the probe exactly like a dispatch: in the
				// half-open state only one in-flight admission exists, and
				// this probe may be it.
				if ok, _ := br.Allow(); !ok {
					continue
				}
				ctx, cancel := context.WithTimeout(c.ctx, c.cfg.ProbeInterval)
				err := c.clients[b].Healthz(ctx)
				cancel()
				if err != nil {
					c.metrics.ProbeFailures.Add(1)
				}
				br.Record(err != nil)
			}
		}
	}
}

// Submit validates and admits a sweep, journals it, and starts its
// dispatch fan-out. The returned Sweep reports progress via View and
// completion via Done.
func (c *Coordinator) Submit(spec SweepSpec) (*Sweep, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	select {
	case <-c.ctx.Done():
		return nil, fmt.Errorf("fleet: coordinator is shutting down")
	default:
	}
	id := fmt.Sprintf("swp-%06d", c.nextID.Add(1))
	spec = spec.withDefaults()
	if c.journal != nil {
		if err := c.journal.AppendSubmit(id, "sweep", spec); err != nil {
			c.metrics.JournalErrors.Add(1)
			return nil, fmt.Errorf("fleet: journal append: %w", err)
		}
	}
	sw := c.newSweep(id, spec, nil)
	c.metrics.SweepsAccepted.Add(1)
	c.startSweep(sw)
	return sw, nil
}

// failReplayed registers a journaled sweep that cannot be re-admitted
// as terminally failed, and journals the failure.
func (c *Coordinator) failReplayed(id, msg string) {
	sw := &Sweep{ID: id, state: service.JobFailed, errMsg: msg,
		submitted: time.Now(), finished: time.Now(), done: make(chan struct{})}
	close(sw.done)
	c.mu.Lock()
	c.sweeps[id] = sw
	c.order = append(c.order, id)
	c.mu.Unlock()
	c.metrics.SweepsFailed.Add(1)
	if err := c.journal.AppendFinish(id, service.JobFailed, msg, ""); err != nil {
		c.metrics.JournalErrors.Add(1)
	}
}

// newSweep registers a sweep and its job set. replayAssign carries the
// journaled backend per key for recovered sweeps (nil otherwise).
func (c *Coordinator) newSweep(id string, spec SweepSpec, replayAssign map[string]string) *Sweep {
	spec = spec.withDefaults()
	sw := &Sweep{
		ID:           id,
		Spec:         spec,
		jobs:         map[string]*sweepJob{},
		keys:         spec.Keys(),
		state:        service.JobRunning,
		submitted:    time.Now(),
		replayAssign: replayAssign,
		done:         make(chan struct{}),
	}
	for _, key := range sw.keys {
		w, sc, _ := SplitKey(key)
		sw.jobs[key] = &sweepJob{key: key, workload: w, scheme: sc, state: service.JobQueued}
	}
	c.mu.Lock()
	c.sweeps[id] = sw
	c.order = append(c.order, id)
	c.mu.Unlock()
	return sw
}

// startSweep fans the sweep's jobs out to the fleet in a background
// goroutine and settles the sweep when the last job lands.
func (c *Coordinator) startSweep(sw *Sweep) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		var jobs sync.WaitGroup
		for _, key := range sw.keys {
			jb := sw.jobs[key]
			jobs.Add(1)
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				defer jobs.Done()
				select {
				case c.sem <- struct{}{}:
					defer func() { <-c.sem }()
				case <-c.ctx.Done():
					sw.failJob(jb, "coordinator shutting down")
					return
				}
				c.runJob(sw, jb)
			}()
		}
		jobs.Wait()
		c.settleSweep(sw)
	}()
}

// settleSweep assembles the final table (all jobs done) or marks the
// sweep failed, and journals the terminal transition — unless the
// coordinator is draining, in which case the sweep stays pending in the
// journal and replays on restart.
func (c *Coordinator) settleSweep(sw *Sweep) {
	results := map[string]*service.RunResult{}
	failed := ""
	sw.mu.Lock()
	for _, key := range sw.keys {
		jb := sw.jobs[key]
		if jb.state == service.JobDone && jb.result != nil {
			results[key] = jb.result
		} else if failed == "" {
			failed = fmt.Sprintf("%s: %s", key, jb.err)
		}
	}
	sw.mu.Unlock()

	var tbl *harness.Table
	var err error
	if failed == "" {
		tbl, err = SweepTable(sw.Spec, results)
		if err != nil {
			failed = err.Error()
		}
	}

	sw.mu.Lock()
	if failed == "" {
		sw.state = service.JobDone
		sw.table = tbl
		sw.tableText = tbl.String()
		sw.tableDigest = tbl.Digest()
	} else {
		sw.state = service.JobFailed
		sw.errMsg = failed
	}
	sw.finished = time.Now()
	digest := sw.tableDigest
	state := sw.state
	errMsg := sw.errMsg
	close(sw.done)
	sw.mu.Unlock()

	if state == service.JobDone {
		c.metrics.SweepsDone.Add(1)
	} else {
		c.metrics.SweepsFailed.Add(1)
	}
	if c.journal != nil && !c.draining.Load() {
		if err := c.journal.AppendFinish(sw.ID, state, errMsg, digest); err != nil {
			c.metrics.JournalErrors.Add(1)
		}
	}
}

// runJob drives one (workload, scheme) job to a terminal state:
// consistent-hash routing with failover down the preference list,
// decorrelated-jitter backoff between redispatches, optional hedging,
// and the digest-quorum cross-check.
func (c *Coordinator) runJob(sw *Sweep, jb *sweepJob) {
	prefs := c.ring.Order(jb.key)
	// A recovering coordinator prefers the journaled backend: its cache
	// already holds this job's result from the previous life.
	if b, ok := sw.replayAssign[jb.key]; ok {
		prefs = promote(prefs, b)
	}
	req := sw.Spec.jobRequest(jb.workload, jb.scheme)

	sw.mu.Lock()
	jb.state = service.JobRunning
	sw.mu.Unlock()

	var prev time.Duration
	var lastErr string
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if c.ctx.Err() != nil {
			sw.failJob(jb, "coordinator shutting down")
			return
		}
		if attempt > 0 {
			c.metrics.JobsRedispatched.Add(1)
			prev = c.nextBackoff(prev)
			select {
			case <-time.After(prev):
			case <-c.ctx.Done():
				sw.failJob(jb, "coordinator shutting down")
				return
			}
		}
		backend := c.pickBackend(prefs, attempt, nil)
		if backend == "" {
			lastErr = "no healthy backend"
			continue
		}
		sw.noteAttempt(jb, backend)
		c.journalAssign(sw.ID, jb.key, backend)

		winner, view, err := c.dispatchHedged(sw, jb, backend, prefs, req)
		switch {
		case err == nil && view.State == service.JobDone && view.Result != nil:
			if !c.quorumCheck(sw, jb, winner, prefs, req, view.Result) {
				return // quorumCheck already failed the job loudly
			}
			sw.completeJob(jb, winner, view.Result)
			c.metrics.JobsDone.Add(1)
			return
		case err == nil:
			// The backend answered but the job failed there (it already
			// burned its own retry budget); try the next backend.
			lastErr = fmt.Sprintf("%s on %s: %s", view.State, winner, view.Error)
			// A shard failing on a corrupt or quarantined trace artifact
			// means shared corpus storage is suspect for this job; the
			// redispatch bypasses the corpus entirely and records live,
			// which produces the identical digest.
			if !req.NoCorpus && corpusFailure(view.Error) {
				req.NoCorpus = true
				c.metrics.CorpusFallbacks.Add(1)
			}
		default:
			lastErr = err.Error()
		}
	}
	sw.failJob(jb, fmt.Sprintf("exhausted %d dispatch attempts: %s", c.cfg.MaxAttempts, lastErr))
	c.metrics.JobsFailed.Add(1)
}

// corpusFailure reports whether a backend's job error names trace
// corruption or a quarantined corpus artifact — the failure classes the
// coordinator routes around by re-dispatching the job corpus-free.
func corpusFailure(msg string) bool {
	return strings.Contains(msg, "corrupt trace") ||
		strings.Contains(msg, "quarantine")
}

// nextBackoff draws the next redispatch delay from the shared jitter
// stream.
func (c *Coordinator) nextBackoff(prev time.Duration) time.Duration {
	c.retryMu.Lock()
	defer c.retryMu.Unlock()
	return c.cfg.Retry.Next(c.retryRNG, prev)
}

// pickBackend walks the preference list starting at rotation offset,
// returning the first backend whose breaker admits (skipping exclude).
// Allow doubles as the half-open probe claim: a dispatch through a
// recovering backend IS its probe, and its Record resolves it.
func (c *Coordinator) pickBackend(prefs []string, offset int, exclude map[string]bool) string {
	for i := 0; i < len(prefs); i++ {
		b := prefs[(offset+i)%len(prefs)]
		if exclude[b] {
			continue
		}
		if ok, _ := c.health[b].Allow(); ok {
			return b
		}
	}
	return ""
}

// dispatchHedged submits the job to primary and, if HedgeAfter elapses
// without a terminal result, to the next healthy backend as well. The
// first arm to return a terminal result wins; the loser's context is
// cancelled and its backend job best-effort cancelled. Every arm's
// outcome feeds its backend's health breaker.
func (c *Coordinator) dispatchHedged(sw *Sweep, jb *sweepJob, primary string, prefs []string, req service.RunRequest) (string, service.JobView, error) {
	type outcome struct {
		backend string
		view    service.JobView
		err     error
	}
	dctx, cancelAll := context.WithCancel(c.ctx)
	defer cancelAll()
	results := make(chan outcome, 2)

	launch := func(backend string) {
		go func() {
			view, err := c.dispatchOne(dctx, backend, req)
			results <- outcome{backend, view, err}
		}()
	}
	c.metrics.JobsDispatched.Add(1)
	launch(primary)
	launched := 1

	var hedgeTimer <-chan time.Time
	if c.cfg.HedgeAfter > 0 && len(prefs) > 1 {
		hedgeTimer = time.After(c.cfg.HedgeAfter)
	}

	var firstLoss *outcome
	for {
		select {
		case o := <-results:
			won := o.err == nil && o.view.State == service.JobDone
			if won {
				if o.backend != primary {
					c.metrics.HedgeWins.Add(1)
				}
				return o.backend, o.view, o.err
			}
			if launched == 2 && firstLoss == nil {
				// One arm failed; the other may still win.
				firstLoss = &o
				continue
			}
			return o.backend, o.view, o.err
		case <-hedgeTimer:
			hedgeTimer = nil
			if b := c.pickBackend(prefs, 0, map[string]bool{primary: true}); b != "" {
				c.metrics.Hedges.Add(1)
				sw.noteHedge(jb, b)
				launch(b)
				launched++
			}
		case <-dctx.Done():
			return primary, service.JobView{}, dctx.Err()
		}
	}
}

// dispatchOne runs submit→await against one backend and feeds its
// health breaker: transport failures and shed responses count against
// the backend; a well-formed answer (even "your job failed") counts
// for it. A cancelled context records nothing — hedging losers must
// not poison a healthy backend's window.
func (c *Coordinator) dispatchOne(ctx context.Context, backend string, req service.RunRequest) (service.JobView, error) {
	cl := c.clients[backend]
	view, err := cl.SubmitRun(ctx, req)
	if err == nil {
		id := view.ID
		view, err = cl.Await(ctx, id)
		if ctx.Err() != nil && id != "" {
			// Lost a hedge race (or the coordinator is closing): stop the
			// backend's copy so its worker frees up.
			cl.Cancel(context.Background(), id)
		}
	}
	if ctx.Err() != nil {
		return view, ctx.Err()
	}
	c.health[backend].Record(err != nil)
	return view, err
}

// quorumCheck double-runs a deterministic sample of jobs on a second
// backend and compares stats digests. Returns false after failing the
// job when verification found a mismatch or could not complete — both
// are loud by design: a digest divergence between two backends means
// non-determinism or corruption somewhere, and silence would bury it.
func (c *Coordinator) quorumCheck(sw *Sweep, jb *sweepJob, primary string, prefs []string, req service.RunRequest, res *service.RunResult) bool {
	if c.cfg.QuorumFraction <= 0 || len(prefs) < 2 || !c.quorumSampled(jb.key) {
		return true
	}
	c.metrics.QuorumRuns.Add(1)

	var lastErr string
	var prev time.Duration
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			prev = c.nextBackoff(prev)
			select {
			case <-time.After(prev):
			case <-c.ctx.Done():
				sw.failJob(jb, "coordinator shutting down during quorum verification")
				c.metrics.JobsFailed.Add(1)
				return false
			}
		}
		backend := c.pickBackend(prefs, attempt, map[string]bool{primary: true})
		if backend == "" {
			lastErr = "no healthy second backend"
			continue
		}
		sw.noteQuorum(jb, backend)
		view, err := c.dispatchOne(c.ctx, backend, req)
		if err != nil || view.State != service.JobDone || view.Result == nil {
			if err != nil {
				lastErr = err.Error()
			} else {
				lastErr = fmt.Sprintf("%s on %s: %s", view.State, backend, view.Error)
			}
			continue
		}
		if view.Result.StatsDigest != res.StatsDigest {
			c.metrics.QuorumMismatches.Add(1)
			sw.failJob(jb, fmt.Sprintf(
				"digest quorum MISMATCH for %s: %s reported %s, %s reported %s — backends disagree on a deterministic run",
				jb.key, primary, res.StatsDigest, backend, view.Result.StatsDigest))
			c.metrics.JobsFailed.Add(1)
			return false
		}
		return true
	}
	sw.failJob(jb, fmt.Sprintf("digest quorum for %s could not complete a verification run: %s", jb.key, lastErr))
	c.metrics.JobsFailed.Add(1)
	return false
}

// quorumSampled deterministically selects the quorum sample: stable
// across coordinator restarts (the seed is configuration) so a
// recovered sweep re-verifies the same keys.
func (c *Coordinator) quorumSampled(key string) bool {
	h := hash64(fmt.Sprintf("quorum|%d|%s", c.cfg.QuorumSeed, key))
	return float64(h%1_000_000) < c.cfg.QuorumFraction*1_000_000
}

// journalAssign records a job → backend routing decision (best effort).
func (c *Coordinator) journalAssign(sweepID, key, backend string) {
	if c.journal == nil {
		return
	}
	if err := c.journal.AppendAssign(sweepID, key, backend); err != nil {
		c.metrics.JournalErrors.Add(1)
	}
}

// promote moves b to the front of prefs (no-op when absent).
func promote(prefs []string, b string) []string {
	for i, p := range prefs {
		if p == b {
			out := make([]string, 0, len(prefs))
			out = append(out, b)
			out = append(out, prefs[:i]...)
			return append(out, prefs[i+1:]...)
		}
	}
	return prefs
}
