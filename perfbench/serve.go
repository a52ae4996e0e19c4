package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hprefetch/internal/fleet"
	"hprefetch/internal/harness"
	"hprefetch/internal/service"
	"hprefetch/internal/workloads"
)

// serveWorkloads are small builds: serving cost, not simulation, should
// dominate this workload.
var serveWorkloads = []string{"gin", "echo", "chain-burst"}

// sweepSchemes is the scheme axis of every fleet sweep.
var sweepSchemes = []string{string(harness.SchemeFDIP), string(harness.SchemeHier)}

// freshShare is the probability that a client's next request is fresh
// (a window never requested before, so it computes and journals) rather
// than a repeat of one of its earlier requests (served from the result
// cache). It is the share of distinct runs among the run requests that
// the paper's evaluation (hpsim -experiment all) sends through the
// harness's result cache: 95 of 203 per workload, whatever the workload
// set. TestFreshShareIsTheEvaluations re-derives it.
const freshShare = 95.0 / 203

// Run windows. The runs are short, so service and fleet overheads, not
// simulation, set the round trip of fresh and repeat requests alike.
// Each fresh request adds a distinct offset to the measure window:
// singles take even steps and sweeps odd ones, so they never share a
// cached result.
const (
	serveWarm    = 10_000
	serveMeasure = 20_000
	windowStep   = 10
)

// serveFleet runs two hpserved backends (one worker and a journal each)
// behind a fleet coordinator, all in process on loopback, with two
// closed-loop clients: one submits single runs to the backends, the
// other fleet sweeps to the coordinator.
type serveFleet struct {
	seed int64
	dir  string
	n    int // set-ups done

	backends []*backend
	coord    *fleet.Coordinator
	coordSrv *http.Server
	coordURL string
	hc       *http.Client

	// Client state persists across phases so that a later phase's
	// fresh requests stay fresh.
	singleRNG, sweepRNG *rand.Rand
	singlePool          []service.RunRequest
	sweepPool           []fleet.SweepSpec
	freshSingles        int
	freshSweeps         int

	// Each client alone writes its own map; verify reads both after the
	// phase.
	digests    *repeats
	singleSeen map[string]served // first result per distinct single request
	sweepSeen  map[string]sweepDone
	layer      layerSet // per-layer metrics from the last traced phase
}

type backend struct {
	srv     *service.Server
	http    *http.Server
	url     string
	journal string
}

type served struct {
	req    service.RunRequest
	digest string
}

type sweepDone struct {
	spec        fleet.SweepSpec
	digest      string
	start, end  time.Time
	jobBackends []string
}

func newServeFleet(seed int64, dir string) *serveFleet {
	return &serveFleet{
		seed:       seed,
		dir:        dir,
		hc:         &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		singleRNG:  rand.New(rand.NewSource(seed)),
		sweepRNG:   rand.New(rand.NewSource(seed ^ 0x5eed)),
		digests:    newRepeats(),
		singleSeen: map[string]served{},
		sweepSeen:  map[string]sweepDone{},
	}
}

// backendPort is the first backend's loopback port; the second listens
// on the next. The coordinator's consistent-hash ring hashes backend
// URLs, so with ports the kernel picks, the six sweep jobs would land
// anywhere from 6:0 to 3:3 on the two backends, differently in every
// run. Fixed ports fix the placement (3:3 for these two) so runs compare.
const backendPort = 41000

// startHTTP serves h on addr.
func startHTTP(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at teardown
	return srv, "http://" + ln.Addr().String(), nil
}

// setup builds the workload set, starts both backends and the
// coordinator, and waits until every /healthz answers ok.
func (b *serveFleet) setup(tr *tracer, t *tally) error {
	workloads.DropCache()
	harness.DropCache()
	b.n++
	if err := buildAll(serveWorkloads, tr); err != nil {
		return err
	}
	var urls []string
	for i := 0; i < 2; i++ {
		jp := filepath.Join(b.dir, fmt.Sprintf("journal-%d-%d.wal", b.n, i))
		srv, err := service.New(service.Config{Workers: 1, JournalPath: jp, RetrySeed: uint64(b.seed)})
		if err != nil {
			return err
		}
		hs, url, err := startHTTP(fmt.Sprintf("127.0.0.1:%d", backendPort+i), srv.Handler())
		if err != nil {
			srv.Close()
			return err
		}
		b.backends = append(b.backends, &backend{srv: srv, http: hs, url: url, journal: jp})
		urls = append(urls, url)
	}
	coord, err := fleet.New(fleet.Config{Backends: urls, MaxInFlight: 2, RetrySeed: uint64(b.seed)})
	if err != nil {
		return err
	}
	b.coord = coord
	if b.coordSrv, b.coordURL, err = startHTTP("127.0.0.1:0", coord.Handler()); err != nil {
		return err
	}
	for _, u := range append(urls, b.coordURL) {
		if err := b.awaitHealthy(u); err != nil {
			return err
		}
	}
	return nil
}

func (b *serveFleet) awaitHealthy(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := b.hc.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ok after 10s (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (b *serveFleet) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if b.coordSrv != nil {
		b.coordSrv.Shutdown(ctx) //nolint:errcheck // best effort at exit
		b.coordSrv = nil
	}
	if b.coord != nil {
		b.coord.Close()
		b.coord = nil
	}
	for _, be := range b.backends {
		be.http.Shutdown(ctx) //nolint:errcheck // best effort at exit
		be.srv.Close()
	}
	b.backends = nil
	b.hc.CloseIdleConnections()
}

// doJSON sends body (nil for GET) and decodes the answer into out,
// failing on any status but want.
func (b *serveFleet) doJSON(method, url string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// opTimeout bounds one request's round trip; a slower one is a failure.
const opTimeout = 30 * time.Second

// single submits one run to a backend and long-polls it until done.
func (b *serveFleet) single(base string, req service.RunRequest, tr *tracer, parent *active, run int64) (service.JobView, error) {
	var v service.JobView
	s := tr.start("service.submit", parent, run)
	err := b.doJSON(http.MethodPost, base+"/v1/runs", req, http.StatusAccepted, &v)
	s.end()
	if err != nil {
		return v, err
	}
	s = tr.start("service.await", parent, run)
	defer s.end()
	deadline := time.Now().Add(opTimeout)
	for !v.State.Terminal() {
		if time.Now().After(deadline) {
			return v, fmt.Errorf("job %s: timed out after %v", v.ID, opTimeout)
		}
		if err := b.doJSON(http.MethodGet, base+"/v1/runs/"+v.ID+"?wait=5s", nil, http.StatusOK, &v); err != nil {
			return v, err
		}
	}
	if v.State != service.JobDone || v.Result == nil {
		return v, fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	return v, nil
}

// sweep submits one sweep to the coordinator and long-polls it.
func (b *serveFleet) sweep(spec fleet.SweepSpec, tr *tracer, parent *active, run int64) (fleet.SweepView, error) {
	var v fleet.SweepView
	s := tr.start("fleet.submit", parent, run)
	err := b.doJSON(http.MethodPost, b.coordURL+"/v1/sweeps", spec, http.StatusAccepted, &v)
	s.end()
	if err != nil {
		return v, err
	}
	s = tr.start("fleet.await", parent, run)
	defer s.end()
	deadline := time.Now().Add(opTimeout)
	for !v.State.Terminal() {
		if time.Now().After(deadline) {
			return v, fmt.Errorf("sweep %s: timed out after %v", v.ID, opTimeout)
		}
		if err := b.doJSON(http.MethodGet, b.coordURL+"/v1/sweeps/"+v.ID+"?wait=5s", nil, http.StatusOK, &v); err != nil {
			return v, err
		}
	}
	if v.State != service.JobDone || v.TableDigest == "" {
		return v, fmt.Errorf("sweep %s ended %s: %s", v.ID, v.State, v.Error)
	}
	return v, nil
}

func singleKey(r service.RunRequest) string {
	return fmt.Sprintf("%s/%s@%d+%d", r.Workload, r.Scheme, r.WarmInstr, r.MeasureInstr)
}

func sweepKey(s fleet.SweepSpec) string {
	return fmt.Sprintf("%v%v@%d+%d", s.Workloads, s.Schemes, s.WarmInstr, s.MeasureInstr)
}

// nextSingle draws the single-run client's next request and whether it
// is fresh.
func (b *serveFleet) nextSingle() (service.RunRequest, bool) {
	rng := b.singleRNG
	if len(b.singlePool) > 0 && rng.Float64() >= freshShare {
		return b.singlePool[rng.Intn(len(b.singlePool))], false
	}
	b.freshSingles++
	req := service.RunRequest{
		Workload:     serveWorkloads[rng.Intn(len(serveWorkloads))],
		Scheme:       string(schemes[rng.Intn(len(schemes))]),
		WarmInstr:    serveWarm,
		MeasureInstr: serveMeasure + windowStep*2*uint64(b.freshSingles),
	}
	b.singlePool = append(b.singlePool, req)
	return req, true
}

// nextSweep draws the sweep client's next sweep.
func (b *serveFleet) nextSweep() fleet.SweepSpec {
	rng := b.sweepRNG
	if len(b.sweepPool) > 0 && rng.Float64() >= freshShare {
		return b.sweepPool[rng.Intn(len(b.sweepPool))]
	}
	b.freshSweeps++
	spec := fleet.SweepSpec{
		Workloads:    serveWorkloads,
		Schemes:      sweepSchemes,
		WarmInstr:    serveWarm,
		MeasureInstr: serveMeasure + windowStep*(2*uint64(b.freshSweeps)+1),
	}
	b.sweepPool = append(b.sweepPool, spec)
	return spec
}

// singleTiming is one completed single run's time split.
type singleTiming struct{ roundTrip, wait, run time.Duration }

func (b *serveFleet) phase(d time.Duration, tr *tracer, t *tally) (*phaseResult, error) {
	p := &phaseResult{}
	var timings []singleTiming
	var sweeps []sweepDone
	a0 := allocated()
	root := tr.start("phase", nil, 0)
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	// Lanes open before their goroutines start, so a late start shows as
	// the lane's own time rather than a gap in the phase.
	singles, sweepers := tr.start("client.singles", root, 0), tr.start("client.sweeps", root, 0)
	go func() {
		defer wg.Done()
		defer singles.end()
		for k := 0; time.Since(t0) < d; k++ {
			req, fresh := b.nextSingle()
			run := runSeq.Add(1)
			t.attempted.Add(1)
			s := tr.start("single", singles, run)
			s0 := time.Now()
			v, err := b.single(b.backends[k%len(b.backends)].url, req, tr, s, run)
			rt := time.Since(s0)
			s.end()
			if err == nil {
				err = b.digests.check(singleKey(req), v.Result.StatsDigest)
			}
			if err != nil {
				t.fail(fmt.Errorf("single %s: %w", singleKey(req), err))
				continue
			}
			p.ops = append(p.ops, float64(rt)/1e6)
			if fresh {
				p.kinds = append(p.kinds, "fresh")
			} else {
				p.kinds = append(p.kinds, "repeat")
			}
			timings = append(timings, singleTiming{rt, v.Started.Sub(v.Submitted), v.Finished.Sub(*v.Started)})
			if _, ok := b.singleSeen[singleKey(req)]; !ok {
				b.singleSeen[singleKey(req)] = served{req, v.Result.StatsDigest}
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer sweepers.end()
		for time.Since(t0) < d {
			spec := b.nextSweep()
			run := runSeq.Add(1)
			t.attempted.Add(1)
			s := tr.start("sweep", sweepers, run)
			s0 := time.Now()
			v, err := b.sweep(spec, tr, s, run)
			end := time.Now()
			s.end()
			if err == nil {
				err = b.digests.check(sweepKey(spec), v.TableDigest)
			}
			if err != nil {
				t.fail(fmt.Errorf("sweep %s: %w", sweepKey(spec), err))
				continue
			}
			p.batches = append(p.batches, float64(end.Sub(s0))/1e6)
			done := sweepDone{spec: spec, digest: v.TableDigest, start: s0, end: end}
			for _, j := range v.Jobs {
				done.jobBackends = append(done.jobBackends, j.Backend)
			}
			sweeps = append(sweeps, done)
			if _, ok := b.sweepSeen[sweepKey(spec)]; !ok {
				b.sweepSeen[sweepKey(spec)] = done
			}
		}
	}()
	wg.Wait()
	p.wall = time.Since(t0)
	p.alloc = allocated() - a0
	// The two clients share both backends and the CPUs, so how much each
	// completes shifts from run to run; their backend jobs together do
	// not. Throughput and allocation count backend jobs: single runs and
	// sweep shards alike.
	p.work = float64(len(p.ops))
	for _, sw := range sweeps {
		p.work += float64(len(sw.jobBackends))
	}
	p.endTrace(tr, root)
	if tr != nil {
		var err error
		if b.layer, err = b.layerMetrics(timings, sweeps); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// verify recomputes every distinct single run directly through the
// harness and every distinct sweep through fleet.RunLocal, with the
// result cache emptied first, and compares digests. The recomputations
// run on workers goroutines.
func (b *serveFleet) verify(t *tally) {
	harness.DropCache()
	var checks []func() error
	for _, s := range b.singleSeen {
		checks = append(checks, func() error {
			rc := harness.DefaultRunConfig()
			rc.WarmInstr, rc.MeasureInstr = s.req.WarmInstr, s.req.MeasureInstr
			res, err := harness.RunUncached(s.req.Workload, harness.Scheme(s.req.Scheme), rc)
			if err != nil {
				return err
			}
			return errors.Join(identities(res.Stats), sameDigest("served "+singleKey(s.req)+" vs harness", s.digest, res.Stats.Digest()))
		})
	}
	for _, s := range b.sweepSeen {
		checks = append(checks, func() error {
			tbl, err := fleet.RunLocal(context.Background(), s.spec)
			if err != nil {
				return err
			}
			return sameDigest("fleet sweep "+sweepKey(s.spec)+" vs RunLocal", s.digest, tbl.Digest())
		})
	}
	parallel(len(checks), func(i int) error { //nolint:errcheck // each check counts in t
		t.attempted.Add(1)
		t.check(checks[i]())
		return nil
	})
}

func (b *serveFleet) report(p *phaseResult) {
	fmt.Printf("serve-fleet: 2 backends (1 worker + journal each) behind a coordinator; fresh share %.3f\n", freshShare)
	fmt.Printf("  single runs           %s\n", timing(p.ops, "ms"))
	byKind := groupByKind(p.ops, p.kinds)
	fmt.Printf("  fresh single runs     %s\n", timing(byKind["fresh"], "ms"))
	fmt.Printf("  repeat single runs    %s\n", timing(byKind["repeat"], "ms"))
	fmt.Printf("  serve_p50_ms          %10.3f ms\n", median(p.ops))
	fmt.Printf("  serve_p90_ms          %10.3f ms\n", quantile(p.ops, 0.9))
	fmt.Printf("  serve_jobs_per_s      %10.3f jobs/s\n", float64(len(p.ops))/p.wall.Seconds())
	fmt.Printf("  backend jobs per s    %10.3f jobs/s (single runs and sweep shards)\n", p.opsPerSec())
	fmt.Printf("  fleet sweeps          %s\n", timing(p.batches, "ms"))
	fmt.Printf("  sweep_p50_ms          %10.3f ms\n", median(p.batches))
	fmt.Printf("  peak_rss_mb           %10.1f MB\n", peakRSSMB())
	fmt.Printf("  distinct requests: %d single runs, %d sweeps\n", len(b.singleSeen), len(b.sweepSeen))
}

// layerMetrics gathers the service, fleet and result-cache metrics of a
// phase from the clients' timings and the servers' own counters.
func (b *serveFleet) layerMetrics(timings []singleTiming, sweeps []sweepDone) (layerSet, error) {
	m := layerSet{}
	var wait, runMS, over []float64
	for _, s := range timings {
		wait = append(wait, float64(s.wait)/1e6)
		runMS = append(runMS, float64(s.run)/1e6)
		over = append(over, float64(s.roundTrip-s.wait-s.run)/1e6)
	}
	m.add("service.wait_ms_p50", "ms", median(wait))
	m.add("service.wait_ms_p90", "ms", quantile(wait, 0.9))
	m.add("service.run_ms", "ms", median(runMS))
	m.add("service.overhead_ms", "ms", median(over))

	var journal int64
	var accepted, rejected, retried, hits, lookups float64
	var jobs []service.JobView
	for _, be := range b.backends {
		st, err := os.Stat(be.journal)
		if err != nil {
			return nil, err
		}
		journal += st.Size()
		var snap service.Snapshot
		if err := b.doJSON(http.MethodGet, be.url+"/metrics?format=json", nil, http.StatusOK, &snap); err != nil {
			return nil, err
		}
		accepted += float64(snap.Jobs.Accepted)
		rejected += float64(snap.Jobs.Rejected + snap.Jobs.BreakerRejected)
		retried += float64(snap.Jobs.Retried)
		// Both backends share the process's result cache, so either
		// one's counters describe it.
		hits = float64(snap.Cache.Hits + snap.Cache.SharedWaits)
		lookups = hits + float64(snap.Cache.Misses)
		var list struct {
			Jobs []service.JobView `json:"jobs"`
		}
		if err := b.doJSON(http.MethodGet, be.url+"/v1/runs", nil, http.StatusOK, &list); err != nil {
			return nil, err
		}
		jobs = append(jobs, list.Jobs...)
	}
	m.add("service.journal_bytes_per_job", "B", float64(journal)/accepted)
	m.add("service.rejected", "count", rejected)
	m.add("service.retries", "count", retried)
	m.add("harness.runner_hit_ratio", "ratio", hits/lookups)

	// A sweep's dispatch overhead is its round trip minus its slowest
	// shard's execution, found among the backend jobs submitted while
	// the sweep was open under its window. Backends retain only their
	// latest jobs, so sweeps whose jobs are gone are skipped.
	var overhead []float64
	perBackend := map[string]float64{}
	for _, sw := range sweeps {
		var slowest time.Duration
		found := 0
		for _, j := range jobs {
			if j.Request.MeasureInstr != sw.spec.MeasureInstr || j.Started == nil || j.Finished == nil ||
				j.Submitted.Before(sw.start) || j.Submitted.After(sw.end) {
				continue
			}
			found++
			slowest = max(slowest, j.Finished.Sub(*j.Started))
		}
		if found == len(sw.jobBackends) {
			overhead = append(overhead, float64(sw.end.Sub(sw.start)-slowest)/1e6)
		}
		for _, be := range sw.jobBackends {
			perBackend[be]++
		}
	}
	if len(overhead) == 0 {
		return nil, errors.New("no sweep's shard jobs were still retained by the backends")
	}
	m.add("fleet.dispatch_overhead_ms", "ms", median(overhead))
	lo, hi := 0.0, 0.0
	for i, be := range b.backends {
		n := perBackend[be.url]
		if i == 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	if lo == 0 {
		return nil, errors.New("a backend received no sweep job; shard skew is undefined")
	}
	m.add("fleet.shard_skew", "ratio", hi/lo)
	var cm fleet.MetricsSnapshot
	if err := b.doJSON(http.MethodGet, b.coordURL+"/metrics", nil, http.StatusOK, &cm); err != nil {
		return nil, err
	}
	m.add("fleet.redispatches", "count", float64(cm.JobsRedispatched))
	m.add("fleet.hedges", "count", float64(cm.Hedges))
	return m, nil
}
