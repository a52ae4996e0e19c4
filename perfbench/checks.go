package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"hprefetch/internal/sim"
)

// identities checks the accounting laws that hold exactly for every run
// of the simulator: each clean demand miss is served by exactly one
// level, each late hit has exactly one origin, the per-level late
// arrays add up to their totals, and the prefetch-distance histograms
// add up to the counters they break down.
func identities(st *sim.Stats) error {
	if got := st.ServedL2 + st.ServedLLC + st.ServedMem; st.L1IDemandMisses != got {
		return fmt.Errorf("L1IDemandMisses %d != ServedL2+ServedLLC+ServedMem %d", st.L1IDemandMisses, got)
	}
	if got := st.LateFDIP + st.LatePF; st.L1ILateHits != got {
		return fmt.Errorf("L1ILateHits %d != LateFDIP+LatePF %d", st.L1ILateHits, got)
	}
	if got := sumU(st.LateFDIPByLevel[:]); st.LateFDIP != got {
		return fmt.Errorf("LateFDIP %d != sum(LateFDIPByLevel) %d", st.LateFDIP, got)
	}
	if got := sumU(st.LatePFByLevel[:]); st.LatePF != got {
		return fmt.Errorf("LatePF %d != sum(LatePFByLevel) %d", st.LatePF, got)
	}
	if got := sumU(st.PFDistHist); st.PFDistCount != got {
		return fmt.Errorf("PFDistCount %d != sum(PFDistHist) %d", st.PFDistCount, got)
	}
	if got := sumU(st.PFDistUseful); st.PFUseful != got {
		return fmt.Errorf("PFUseful %d != sum(PFDistUseful) %d", st.PFUseful, got)
	}
	return nil
}

func sumU(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

// sameDigest checks that an output reproduces its reference.
func sameDigest(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: digest %s, want %s", what, got, want)
	}
	return nil
}

// repeats remembers the first digest seen per key and checks that every
// later output under the same key reproduces it. Safe for concurrent use.
type repeats struct {
	mu    sync.Mutex
	first map[string]string
}

func newRepeats() *repeats { return &repeats{first: map[string]string{}} }

func (r *repeats) check(key, digest string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	want, seen := r.first[key]
	if !seen {
		r.first[key] = digest
		return nil
	}
	return sameDigest("repeat of "+key, digest, want)
}

// tally counts attempted operations and failures (failed operations and
// failed output checks). Safe for concurrent use.
type tally struct {
	attempted, failed atomic.Int64
}

// fail counts one failure and reports the first few on stderr.
func (t *tally) fail(err error) {
	if n := t.failed.Add(1); n <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
}

// check counts err as a failure when it is non-nil.
func (t *tally) check(err error) {
	if err != nil {
		t.fail(err)
	}
}
