package harness

import (
	"container/list"
	"context"
	"sync"
)

// DefaultCacheEntries bounds the default Runner's result cache. A Result
// is a few kilobytes of counters, so the default is generous: enough for
// every run the full evaluation performs several times over, while still
// guaranteeing a long-lived server cannot grow without limit.
const DefaultCacheEntries = 4096

// RunnerStats is a snapshot of a Runner's caching behaviour.
type RunnerStats struct {
	// Hits counts calls served straight from the result cache.
	Hits uint64
	// SharedWaits counts callers that found an identical run already in
	// flight and waited for its result instead of simulating again.
	SharedWaits uint64
	// Misses counts calls that actually performed a simulation.
	Misses uint64
	// Evictions counts results displaced by the LRU bound.
	Evictions uint64
	// Entries and InFlight are current occupancy gauges.
	Entries  int
	InFlight int
}

// flight is one in-progress simulation that late-arriving identical
// callers wait on. res/err are written exactly once, before done closes.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// cacheEntry is one LRU cache slot (the element value of Runner.order).
type cacheEntry struct {
	key string
	res *Result
}

// Runner runs (workload, scheme, config) simulations with single-flight
// deduplication and a size-bounded LRU result cache. It is safe for
// concurrent use; the zero value is not valid — use NewRunner. The
// package-level Run uses a shared default Runner, so every consumer
// (experiment tables, the hpsim CLI, the hpserved service) sees one
// coherent cache.
type Runner struct {
	mu       sync.Mutex
	max      int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	inflight map[string]*flight
	stats    RunnerStats

	// runFn performs the actual simulation; tests substitute a stub to
	// observe scheduling without paying for real runs.
	runFn func(ctx context.Context, workload string, scheme Scheme, rc RunConfig) (*Result, error)
}

// NewRunner builds a Runner whose cache holds at most maxEntries results
// (values < 1 fall back to DefaultCacheEntries).
func NewRunner(maxEntries int) *Runner {
	if maxEntries < 1 {
		maxEntries = DefaultCacheEntries
	}
	return &Runner{
		max:      maxEntries,
		entries:  map[string]*list.Element{},
		order:    list.New(),
		inflight: map[string]*flight{},
		runFn:    runOne,
	}
}

// Run simulates one (workload, scheme) pair under rc. Identical calls
// are deduplicated two ways: completed runs come from the LRU cache, and
// a call arriving while the same run is in flight waits for that run's
// result instead of starting a second simulation. Cancellation comes
// from rc.Ctx — the leader's context is threaded into the simulator's
// cycle loop, and a waiter whose own context expires stops waiting (the
// leader keeps running for everyone else). Only successful runs are
// cached; errors are returned to every caller that shared the flight.
func (r *Runner) Run(workload string, scheme Scheme, rc RunConfig) (*Result, error) {
	ctx := rc.context()
	k, err := rc.key(workload, scheme)
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	if el, ok := r.entries[k]; ok {
		r.order.MoveToFront(el)
		r.stats.Hits++
		res := el.Value.(*cacheEntry).res
		r.mu.Unlock()
		return res, nil
	}
	if f, ok := r.inflight[k]; ok {
		r.stats.SharedWaits++
		r.mu.Unlock()
		select {
		case <-f.done:
			return f.res, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	r.inflight[k] = f
	r.stats.Misses++
	r.mu.Unlock()

	f.res, f.err = r.runFn(ctx, workload, scheme, rc)

	r.mu.Lock()
	delete(r.inflight, k)
	if f.err == nil {
		r.insert(k, f.res)
	}
	r.mu.Unlock()
	close(f.done)
	return f.res, f.err
}

// insert adds a result under r.mu, evicting from the LRU tail past the
// size bound.
func (r *Runner) insert(key string, res *Result) {
	if el, ok := r.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		r.order.MoveToFront(el)
		return
	}
	r.entries[key] = r.order.PushFront(&cacheEntry{key: key, res: res})
	for r.order.Len() > r.max {
		tail := r.order.Back()
		r.order.Remove(tail)
		delete(r.entries, tail.Value.(*cacheEntry).key)
		r.stats.Evictions++
	}
}

// SetLimit changes the cache bound, evicting immediately if the cache is
// already over the new bound. Values < 1 fall back to
// DefaultCacheEntries.
func (r *Runner) SetLimit(maxEntries int) {
	if maxEntries < 1 {
		maxEntries = DefaultCacheEntries
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.max = maxEntries
	for r.order.Len() > r.max {
		tail := r.order.Back()
		r.order.Remove(tail)
		delete(r.entries, tail.Value.(*cacheEntry).key)
		r.stats.Evictions++
	}
}

// Stats returns a snapshot of the Runner's counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Entries = r.order.Len()
	s.InFlight = len(r.inflight)
	return s
}

// Reset drops every cached result and zeroes the counters. In-flight
// runs finish normally but their results land in the fresh cache.
func (r *Runner) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = map[string]*list.Element{}
	r.order = list.New()
	r.stats = RunnerStats{}
}

// Warm concurrently simulates the base (workload × scheme) cross product
// of rc — the runs every experiment shares — with up to parallel workers,
// so a following serial experiment pass finds them cached. Individual
// run errors are deliberately dropped here: the serial pass repeats the
// failing pair (errors are never cached) and reports the error with its
// experiment context attached.
func (r *Runner) Warm(rc RunConfig, parallel int) {
	if parallel < 1 {
		parallel = 1
	}
	type pair struct {
		w string
		s Scheme
	}
	var pairs []pair
	for _, w := range rc.workloadList() {
		for _, s := range append(Schemes(), SchemePerfect) {
			pairs = append(pairs, pair{w, s})
		}
	}
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for _, p := range pairs {
		if rc.context().Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(p pair) {
			defer wg.Done()
			defer func() { <-sem }()
			r.Run(p.w, p.s, rc) //nolint:errcheck // resurfaces in the serial pass
		}(p)
	}
	wg.Wait()
}
