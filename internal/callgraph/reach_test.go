package callgraph

import (
	"reflect"
	"testing"

	"hprefetch/internal/xrand"
)

// legacyReachable is the original reachable-size computation, kept as
// the oracle for the additive pass: every component runs its own capped
// depth-first search with an epoch array to avoid reallocation.
func legacyReachable(c *condensation, cap uint64) ([]uint64, []bool) {
	reach := make([]uint64, c.n)
	sat := make([]bool, c.n)
	epoch := make([]int32, c.n)
	for i := range epoch {
		epoch[i] = -1
	}
	var stack []int32
	for v := 0; v < c.n; v++ {
		var acc uint64
		stack = append(stack[:0], int32(v))
		epoch[v] = int32(v)
		for len(stack) > 0 && acc < cap {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			acc += c.size[u]
			for _, w := range c.edges[c.edgeStart[u]:c.edgeStart[u+1]] {
				if epoch[w] != int32(v) {
					epoch[w] = int32(v)
					stack = append(stack, w)
				}
			}
		}
		reach[v] = acc
		sat[v] = acc >= cap
	}
	return reach, sat
}

// ReferenceAnalyze is Analyze over the legacy reachable-size walk.
func ReferenceAnalyze(g *Graph, opt Options) (*Analysis, error) {
	return analyze(g, opt, legacyReachable)
}

// randomGraph builds a seeded call graph mixing the shapes that stress
// the additive pass: private trees, hubs many callers share, back edges
// that fold nodes into cycles, and sizes large enough to saturate.
func randomGraph(seed uint64, n int) *Graph {
	rng := xrand.New(seed)
	sizes := make([]uint32, n)
	edges := map[int][]int{}
	hubs := 1 + rng.IntN(4)
	for v := 0; v < n; v++ {
		sizes[v] = uint32(rng.Range(1, 64)) << 10
		if rng.Bool(0.05) {
			sizes[v] = uint32(rng.Range(200, 900)) << 10
		}
		seen := map[int]bool{v: true} // callee lists are distinct, without self-calls
		call := func(w int) {
			if w >= 0 && !seen[w] {
				seen[w] = true
				edges[v] = append(edges[v], w)
			}
		}
		for e, fan := 0, rng.IntN(4); e < fan && v+1 < n; e++ {
			call(v + 1 + rng.IntN(n-v-1))
		}
		if rng.Bool(0.2) { // a hub near the leaves, called from all over
			call(n - 1 - rng.IntN(hubs))
		}
		if v > 0 && rng.Bool(0.04) { // back edge: a cycle through v
			call(rng.IntN(v))
		}
	}
	return graphFromEdges(sizes, edges)
}

// checkAgainstLegacy asserts the additive pass and the legacy walk agree
// on every component and on the resulting Analysis.
func checkAgainstLegacy(t *testing.T, g *Graph, opt Options) {
	t.Helper()
	comp, _ := scc(g)
	cap := opt.Cap
	if cap == 0 {
		cap = 4 * opt.Threshold
	}
	gotR, gotS := comp.reachable(cap)
	wantR, wantS := legacyReachable(comp, cap)
	for v := range wantR {
		if gotR[v] != wantR[v] || gotS[v] != wantS[v] {
			t.Fatalf("component %d: reach %d sat %v, legacy %d %v", v, gotR[v], gotS[v], wantR[v], wantS[v])
		}
	}
	got, err := Analyze(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceAnalyze(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("analysis differs from the legacy walk: %d entries, legacy %d", len(got.Entries), len(want.Entries))
	}
}

func TestReachableMatchesLegacy(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		n := 2 + int(seed%7)*60
		// Alternate between the default cap, which large subgraphs
		// reach, and one nothing reaches.
		opt := Options{Threshold: 200 << 10}
		if seed%2 == 1 {
			opt.Cap = 1 << 40
		}
		checkAgainstLegacy(t, randomGraph(seed, n), opt)
	}
}

func FuzzReachable(f *testing.F) {
	f.Add(uint64(1), uint16(50), uint8(0))
	f.Add(uint64(7), uint16(400), uint8(3))
	f.Add(uint64(42), uint16(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, capShift uint8) {
		size := 1 + int(n)%2000
		threshold := uint64(200 << 10)
		// Caps from the threshold up to threshold<<15: from most
		// components saturated to none.
		opt := Options{Threshold: threshold, Cap: threshold << (capShift % 16)}
		checkAgainstLegacy(t, randomGraph(seed, size), opt)
	})
}
