package workloads_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hprefetch/internal/program"
	"hprefetch/internal/workloads"
)

// gatedPrefix names the workloads these tests register; the image golden
// skips them.
const gatedPrefix = "test-gated-"

// gatedGen is a registered workload whose generator announces itself on
// entered and then blocks until released, so tests can hold builds open.
type gatedGen struct {
	name    string
	calls   atomic.Int32
	failOn  int32 // the call number that returns an error (0: none)
	panicOn int32 // the call number that panics (0: none)
	entered chan struct{}
	release chan struct{}
}

var (
	gatedMu sync.Mutex
	gated   = map[string]*gatedGen{}
)

// newGated registers (once per process, so -count=N works) a small
// workload named name and arms a fresh gate for it.
func newGated(t *testing.T, name string) *gatedGen {
	t.Helper()
	g := &gatedGen{name: name, entered: make(chan struct{}, 16), release: make(chan struct{})}
	gatedMu.Lock()
	_, known := gated[name]
	gated[name] = g
	gatedMu.Unlock()
	workloads.DropCache()
	if known {
		return g
	}
	cfg := program.DefaultConfig()
	cfg.Name = name
	cfg.OrphanFuncs, cfg.LibFuncs, cfg.ColdTrees = 200, 80, 2
	err := workloads.Register(workloads.Workload{Name: name, Config: cfg, Generator: func() (*program.Program, error) {
		gatedMu.Lock()
		g := gated[name]
		gatedMu.Unlock()
		n := g.calls.Add(1)
		g.entered <- struct{}{}
		<-g.release
		switch n {
		case g.failOn:
			return nil, errors.New("injected generator failure")
		case g.panicOn:
			panic("injected generator panic")
		}
		return program.Generate(cfg)
	}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// within fails the test if ch does not deliver before a generous timeout.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(20 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

type outcome struct {
	b   *workloads.Built
	err error
}

func goBuild(name string) <-chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		b, err := workloads.Build(name)
		ch <- outcome{b, err}
	}()
	return ch
}

// waitForWaiters blocks until n goroutines are parked inside Build on
// another caller's flight (their innermost frame is Build itself; the
// leader's is its generator).
func waitForWaiters(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		got := 0
		for _, g := range strings.Split(stacks, "\n\n") {
			lines := strings.SplitN(g, "\n", 3)
			if len(lines) >= 2 && strings.Contains(lines[0], "[chan receive") &&
				strings.HasPrefix(lines[1], "hprefetch/internal/workloads.Build(") {
				got++
			}
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers waiting in Build", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func complete(t *testing.T, o outcome) *workloads.Built {
	t.Helper()
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.b == nil || o.b.Linked == nil || o.b.Loaded == nil {
		t.Fatalf("half-built workload returned: %+v", o.b)
	}
	return o.b
}

func TestBuildDifferentNamesInParallel(t *testing.T) {
	a, b := newGated(t, gatedPrefix+"a"), newGated(t, gatedPrefix+"b")
	ra, rb := goBuild(a.name), goBuild(b.name)
	// Both generators are running at once: neither is released until
	// the other has entered.
	within(t, a.entered, "the first generator")
	within(t, b.entered, "the second generator while the first is still building")
	close(a.release)
	close(b.release)
	complete(t, within(t, ra, "the first build"))
	complete(t, within(t, rb, "the second build"))
}

func TestBuildSingleFlightPerName(t *testing.T) {
	g := newGated(t, gatedPrefix+"a")
	const n = 8
	results := make([]<-chan outcome, n)
	results[0] = goBuild(g.name)
	within(t, g.entered, "the generator")
	for i := 1; i < n; i++ {
		results[i] = goBuild(g.name)
	}
	waitForWaiters(t, n-1)
	close(g.release)
	first := complete(t, within(t, results[0], "the leader"))
	for i := 1; i < n; i++ {
		if b := complete(t, within(t, results[i], "a waiter")); b != first {
			t.Errorf("caller %d got a different *workloads.Built", i)
		}
	}
	if again, err := workloads.Build(g.name); err != nil || again != first {
		t.Errorf("memoised build not reused: %v", err)
	}
	if c := g.calls.Load(); c != 1 {
		t.Errorf("generator ran %d times for %d concurrent calls, want 1", c, n)
	}
}

// TestBuildFailureSharedButNotCached fails the first build, by an error
// and by a panic: the waiter sharing it gets an error, and the next call
// runs the generator again.
func TestBuildFailureSharedButNotCached(t *testing.T) {
	for _, panics := range []bool{false, true} {
		g := newGated(t, gatedPrefix+"a")
		if panics {
			g.panicOn = 1
		} else {
			g.failOn = 1
		}
		leader := make(chan outcome, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					leader <- outcome{err: fmt.Errorf("panic: %v", r)}
				}
			}()
			b, err := workloads.Build(g.name)
			leader <- outcome{b, err}
		}()
		within(t, g.entered, "the generator")
		waiter := goBuild(g.name)
		waitForWaiters(t, 1)
		close(g.release)
		if o := within(t, leader, "the failing leader"); o.err == nil {
			t.Fatalf("panics=%v: injected failure not reported to the leader", panics)
		}
		if o := within(t, waiter, "the waiter"); o.err == nil || o.b != nil {
			t.Fatalf("panics=%v: waiter did not share the failure: %+v", panics, o)
		}
		complete(t, within(t, goBuild(g.name), "the retry"))
		if c := g.calls.Load(); c != 2 {
			t.Errorf("panics=%v: generator ran %d times, want 2 (failure, retry)", panics, c)
		}
	}
}

func TestDropCacheDuringBuild(t *testing.T) {
	g := newGated(t, gatedPrefix+"a")
	first := goBuild(g.name)
	within(t, g.entered, "the first generator")
	waiter := goBuild(g.name)
	waitForWaiters(t, 1)
	workloads.DropCache() // must not block on the build in flight
	second := goBuild(g.name)
	within(t, g.entered, "a fresh build after DropCache")
	close(g.release)
	a := complete(t, within(t, first, "the dropped build"))
	if w := complete(t, within(t, waiter, "the dropped build's waiter")); w != a {
		t.Error("waiter of the dropped build got a different value")
	}
	if b := complete(t, within(t, second, "the fresh build")); b == a {
		t.Error("a build started after DropCache reused the dropped one")
	}
	if c := g.calls.Load(); c != 2 {
		t.Errorf("generator ran %d times, want 2", c)
	}
}
