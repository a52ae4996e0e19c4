package main

import (
	"errors"
	"math"
	"strings"
	"testing"

	"hprefetch/internal/harness"
	"hprefetch/internal/sim"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps 2: shared time counts once
		{ID: 7, Parent: 1, Start: 12, End: 18}, // inside 2: adds nothing
		{ID: 4, Parent: 1, Start: 70, End: 80},
		{ID: 5, Parent: 3, Start: 25, End: 35},
		{ID: 6, Parent: 4, Start: 60, End: 75}, // starts before its parent: only its overlap counts
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 20, 4: 5, 5: 10, 6: 15, 7: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestBlockingPathAddsUpToRoot(t *testing.T) {
	// Two passes; in each, two lanes run in parallel and the one that
	// ends last holds the pass up.
	spans := []span{
		{ID: 1, Name: "phase", Start: 0, End: 100_000},
		{ID: 2, Parent: 1, Name: "pass", Start: 1_000, End: 50_000},
		{ID: 3, Parent: 2, Name: "lane", Start: 1_000, End: 40_000},
		{ID: 4, Parent: 2, Name: "lane", Start: 1_000, End: 49_000},
		{ID: 5, Parent: 4, Name: "run", Start: 2_000, End: 30_000},
		{ID: 6, Parent: 4, Name: "run", Start: 30_000, End: 48_000},
		{ID: 7, Parent: 3, Name: "run", Start: 2_000, End: 39_000},
		{ID: 8, Parent: 1, Name: "pass", Start: 50_000, End: 99_000},
		{ID: 9, Parent: 8, Name: "lane", Start: 50_000, End: 99_000},
	}
	path := blockingPath(spans[0], children(spans))
	onPath := map[int64]bool{}
	for _, s := range path {
		onPath[s.ID] = true
	}
	for _, id := range []int64{1, 2, 4, 5, 6, 8, 9} {
		if !onPath[id] {
			t.Errorf("span %d should be on the blocking path", id)
		}
	}
	for _, id := range []int64{3, 7} {
		if onPath[id] {
			t.Errorf("span %d ran beside the blocking lane and should be off the path", id)
		}
	}
	if err := printPath("test", spans[0], path, spans); err != nil {
		t.Errorf("path self times should add up to the phase: %v", err)
	}

	// The blocking lane starts late; the lane beside it covers the
	// pass's first 9 µs, which no span on the path accounts for.
	spans[3].Start, spans[4].Start = 10_000, 11_000
	path = blockingPath(spans[0], children(spans))
	if err := printPath("test", spans[0], path, spans); err == nil {
		t.Error("a gap in the blocking path covered off the path was accepted")
	}
}

// consistentStats returns counters that satisfy every identity.
func consistentStats() *sim.Stats {
	st := sim.NewStats()
	st.ServedL2, st.ServedLLC, st.ServedMem = 3, 2, 1
	st.L1IDemandMisses = 6
	st.LateFDIP, st.LatePF = 4, 5
	st.L1ILateHits = 9
	st.LateFDIPByLevel = [5]uint64{1, 3}
	st.LatePFByLevel = [5]uint64{0, 2, 3}
	st.PFDistHist[0], st.PFDistHist[1] = 2, 5
	st.PFDistCount = 7
	st.PFDistUseful[1] = 4
	st.PFUseful = 4
	return st
}

func TestIdentitiesRejectEachBrokenLaw(t *testing.T) {
	if err := identities(consistentStats()); err != nil {
		t.Fatalf("consistent stats rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*sim.Stats){
		"L1IDemandMisses": func(s *sim.Stats) { s.ServedMem++ },
		"L1ILateHits":     func(s *sim.Stats) { s.L1ILateHits++ },
		"LateFDIPByLevel": func(s *sim.Stats) { s.LateFDIPByLevel[4]++ },
		"LatePFByLevel":   func(s *sim.Stats) { s.LatePFByLevel[0]++ },
		"PFDistHist":      func(s *sim.Stats) { s.PFDistHist[2]++ },
		"PFDistUseful":    func(s *sim.Stats) { s.PFDistUseful[0]++ },
	} {
		st := consistentStats()
		breakIt(st)
		err := identities(st)
		if err == nil {
			t.Errorf("%s: broken identity accepted", name)
		} else if !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error %q does not name the broken law", name, err)
		}
	}
}

func TestRepeatsRejectMismatchedDigest(t *testing.T) {
	r := newRepeats()
	if err := r.check("gin/FDIP", "fnv1a64:aa"); err != nil {
		t.Fatalf("first digest rejected: %v", err)
	}
	if err := r.check("gin/FDIP", "fnv1a64:aa"); err != nil {
		t.Errorf("matching repeat rejected: %v", err)
	}
	if err := r.check("gin/MANA", "fnv1a64:bb"); err != nil {
		t.Errorf("another key's first digest rejected: %v", err)
	}
	if err := r.check("gin/FDIP", "fnv1a64:bb"); err == nil {
		t.Error("mismatched repeat accepted")
	}
}

func TestSameDigestRejectsMismatch(t *testing.T) {
	if err := sameDigest("replay vs recording", "fnv1a64:aa", "fnv1a64:aa"); err != nil {
		t.Errorf("equal digests rejected: %v", err)
	}
	if err := sameDigest("replay vs recording", "fnv1a64:aa", "fnv1a64:ab"); err == nil {
		t.Error("different digests accepted")
	}
}

func TestTallyCountsFailedChecks(t *testing.T) {
	var tl tally
	tl.check(nil)
	tl.check(errors.Join(sameDigest("a", "x", "y"), sameDigest("b", "x", "z")))
	if got := tl.failed.Load(); got != 1 {
		t.Errorf("failed = %d, want 1 (one operation, two failed checks)", got)
	}
}

func TestKindQuantileStaysOffTheBoundaryBetweenKinds(t *testing.T) {
	cheap := []float64{1, 2, 3}
	dear := []float64{10, 20, 30}
	var xs []float64
	var kinds []string
	for i := range cheap {
		xs, kinds = append(xs, cheap[i], dear[i]), append(kinds, "cheap", "dear")
	}
	// Ratios to the kind medians (2 and 20) are 0.5, 1, 1.5 for each
	// kind; the kinds' weighted mean median is 11.
	for _, tc := range []struct{ q, want float64 }{{0.5, 11}, {0, 5.5}, {1, 16.5}} {
		if got := kindQuantile(xs, kinds, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("kindQuantile(q=%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// One more dear sample at the dear median shifts the weights a
	// little; the pooled median would jump from the cheap cluster to
	// the dear one.
	xs, kinds = append(xs, 20), append(kinds, "dear")
	if got, want := kindQuantile(xs, kinds, 0.5), (3*2+4*20)/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("kindQuantile(q=0.5) = %g, want %g", got, want)
	}
	if got := median(xs); got != 10 {
		t.Errorf("pooled median = %g, want 10", got)
	}
	// With one kind it is the plain quantile.
	one := []string{"a", "a", "a", "a", "a"}
	if got, want := kindQuantile([]float64{4, 1, 3, 2, 5}, one, 0.9), 4.6; math.Abs(got-want) > 1e-12 {
		t.Errorf("one-kind kindQuantile = %g, want %g", got, want)
	}
}

func TestFreshShareIsTheEvaluations(t *testing.T) {
	// The evaluation's run requests per workload do not depend on the
	// workload or the window, so gin at a tiny window gives the share.
	harness.DropCache()
	defer harness.DropCache()
	rc := harness.DefaultRunConfig()
	rc.Workloads = []string{"gin"}
	rc.WarmInstr, rc.MeasureInstr = 2_000, 2_000
	if _, err := harness.AllExperimentsParallel(rc, 1); err != nil {
		t.Fatal(err)
	}
	st := harness.CacheStats()
	if got := float64(st.Misses) / float64(st.Hits+st.SharedWaits+st.Misses); got != freshShare {
		t.Errorf("the evaluation requests %d distinct runs in %d requests (share %.4f); freshShare is %.4f",
			st.Misses, st.Hits+st.SharedWaits+st.Misses, got, freshShare)
	}
}
