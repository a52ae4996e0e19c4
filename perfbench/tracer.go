package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval around a call the benchmark makes into a
// layer of the program. Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Run    int64  `json:"run"`    // the operation the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every finished span in memory; they are written out once,
// when the run ends. A nil *tracer records nothing, so untraced runs pay
// only a nil check at each boundary.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span; end closes it. A nil *active (from a nil
// tracer) ignores end.
type active struct {
	tr *tracer
	s  span
}

// start opens a span named name under parent (nil for a root) in run.
func (t *tracer) start(name string, parent *active, run int64) *active {
	if t == nil {
		return nil
	}
	a := &active{tr: t, s: span{ID: t.nextID.Add(1), Run: run, Name: name, Start: int64(time.Since(t.t0))}}
	if parent != nil {
		a.s.Parent = parent.s.ID
	}
	return a
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.tr.t0))
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, a.s)
	a.tr.mu.Unlock()
}

// finished returns a copy of the recorded spans.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// children indexes spans by parent id.
func children(spans []span) map[int64][]span {
	out := map[int64][]span{}
	for _, s := range spans {
		out[s.Parent] = append(out[s.Parent], s)
	}
	return out
}

// covered returns how many nanoseconds of [lo, hi) the spans cover,
// counting time that several spans share once.
func covered(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its child spans cover.
func selfTimes(spans []span) map[int64]int64 {
	kids := children(spans)
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// blockingPath walks the spans that block root's completion: from the
// end of root backwards, the child that finished last, then before that
// child started, the next one to finish, and so on, recursing into each
// chosen child. Where children ran in parallel, only the one that held
// root up is on the path.
func blockingPath(root span, kids map[int64][]span) []span {
	cs := append([]span(nil), kids[root.ID]...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].End > cs[j].End })
	var below []span
	t := root.End
	for _, c := range cs {
		if c.End > t || c.Start < root.Start {
			continue
		}
		below = append(below, blockingPath(c, kids)...)
		t = c.Start
	}
	return append([]span{root}, below...)
}

// pathTolerance is the share of the phase by which the self times along
// the blocking path may miss it. Parallel lanes start a few microseconds
// apart, and the time a lane off the path covers before the path's lane
// starts is no path span's self time.
const pathTolerance = 0.001

// printPath reports, per span name, the self time on the blocking path
// and the self time summed over every span of the phase (parallel lanes
// included). It checks that the self times along the path add up to the
// root: they miss it by the time that a parent on the path spent
// neither alone nor in a child on the path, that is, time a span off
// the path covered while the path had a gap.
func printPath(label string, root span, path, spans []span) error {
	self := selfTimes(spans)
	by, all := map[string]int64{}, map[string]int64{}
	var sum int64
	for _, s := range path {
		by[s.Name] += self[s.ID]
		sum += self[s.ID]
	}
	for _, s := range spans {
		all[s.Name] += self[s.ID]
	}
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return by[names[i]] > by[names[j]] || by[names[i]] == by[names[j]] && names[i] < names[j]
	})
	fmt.Printf("self time in the timed phase of %s (%.3f s; %d blocking steps, summing to %.6f s):\n",
		label, float64(root.dur())/1e9, len(path), float64(sum)/1e9)
	fmt.Printf("  %-30s %12s %8s %14s\n", "span", "blocking s", "share", "all spans s")
	for _, n := range names {
		fmt.Printf("  %-30s %12.3f %7.1f%% %14.3f\n", n, float64(by[n])/1e9, 100*float64(by[n])/float64(root.dur()), float64(all[n])/1e9)
	}
	if miss := root.dur() - sum; float64(miss) > pathTolerance*float64(root.dur()) {
		return fmt.Errorf("blocking-path self times sum to %d ns, timed phase is %d ns", sum, root.dur())
	}
	return nil
}
