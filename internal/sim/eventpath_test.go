package sim_test

// The machine pulls every source through one lookahead window: a live
// or teeing source fills a machine-owned buffer through Next, a decoded
// trace (sim.BatchSource) is read in place. These tests hold the two
// fills to the same observable behaviour.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"hprefetch/internal/core"
	"hprefetch/internal/fault"
	"hprefetch/internal/isa"
	_ "hprefetch/internal/microsvc" // registers the chain-* workloads
	"hprefetch/internal/prefetch"
	"hprefetch/internal/sim"
	"hprefetch/internal/tracefile"
	"hprefetch/internal/workloads"
)

// recordWorkload builds a workload and records its live stream, covering
// instr instructions plus the recorder's lookahead tail.
func recordWorkload(t *testing.T, name string, instr uint64) (*workloads.Built, string) {
	t.Helper()
	b, err := workloads.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".hpt")
	meta := tracefile.Meta{Workload: name, Seed: b.Workload.TraceSeed, TargetInstructions: instr}
	if _, err := tracefile.Record(path, b.NewEngine(), meta, instr, tracefile.TailEvents, tracefile.Options{}); err != nil {
		t.Fatal(err)
	}
	return b, path
}

func newHier(m prefetch.Machine) prefetch.Prefetcher { return core.New(core.DefaultConfig(), m) }

// TestRunBoundaryParity drives a machine over the live chain-burst
// engine and one over its loaded trace through the same irregular
// sequence of Run, SkipFunctional and ResetStats, and requires equal
// full statistics after every step — Requests and the per-request stall
// histogram included, which depend on exactly how far each source has
// been pulled when a Run starts and ends. Requests must also equal what
// the live engine itself counted across the measured Runs.
func TestRunBoundaryParity(t *testing.T) {
	const (
		run = iota
		skip
		reset
	)
	steps := []struct {
		op int
		n  uint64
	}{
		{run, 1}, {run, 1}, {skip, 1}, {run, 7}, {reset, 0}, {run, 100_000},
		{skip, 50_000}, {run, 3}, {reset, 0}, {run, 20_000}, {skip, 1}, {run, 1},
		{run, 99_999}, {reset, 0}, {run, 40_000}, {skip, 100_000}, {run, 17},
		{reset, 0}, {run, 65_536}, {run, 2},
	}
	var total uint64
	for _, s := range steps {
		total += s.n
	}
	built, path := recordWorkload(t, "chain-burst", total+10_000)
	ld, err := tracefile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []scheme{{"FDIP", nil}, {"Hierarchical", newHier}} {
		var ms [2]*sim.Machine
		eng := built.NewEngine()
		for i, src := range []sim.EventSource{eng, ld.Replay()} {
			if ms[i], err = sim.New(sim.DefaultParams(), src, nil); err != nil {
				t.Fatal(err)
			}
			if s.mk != nil {
				ms[i].SetPrefetcher(s.mk(ms[i]))
			}
		}
		marked := false
		var requests uint64 // the engine's own count over the measured Runs
		for i, st := range steps {
			r0 := eng.Requests()
			for _, m := range ms {
				switch st.op {
				case run:
					err = m.Run(st.n)
				case skip:
					err = m.SkipFunctional(st.n)
				case reset:
					m.ResetStats()
				}
				if err != nil {
					t.Fatalf("%s step %d: %v", s.name, i, err)
				}
			}
			live, replay := ms[0].Stats(), ms[1].Stats()
			if !reflect.DeepEqual(live, replay) {
				t.Fatalf("%s step %d (op %d, n %d): replay stats differ from live:\n--- live\n%s--- replay\n%s",
					s.name, i, st.op, st.n, live.Canonical(), replay.Canonical())
			}
			switch st.op {
			case run:
				requests += eng.Requests() - r0
			case reset:
				requests = 0
			}
			if live.Requests != requests {
				t.Fatalf("%s step %d: Stats.Requests %d, the engine counted %d", s.name, i, live.Requests, requests)
			}
			marked = marked || live.Requests > 0 && live.ReqCompleted > 0
		}
		if !marked {
			t.Errorf("%s: no step started and completed a request; the parity check never saw a request mark", s.name)
		}
	}
}

// TestFaultedReplayLeavesTraceIntact: a replay cursor's window aliases
// the decoded arrays every cursor of the same Loaded shares, so tag
// flips under fault injection must land on the machine's scratch copy,
// never on the shared events. A clean run on a second cursor, made
// before the faulted run, must match a run over a fresh load.
func TestFaultedReplayLeavesTraceIntact(t *testing.T) {
	const instr = 300_000
	_, path := recordWorkload(t, "gin", instr)
	shared, err := tracefile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := tracefile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	run := func(src sim.EventSource, inj *fault.Injector) func() *sim.Stats {
		m, err := sim.New(sim.DefaultParams(), src, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.SetPrefetcher(newHier(m))
		m.SetFaults(inj)
		return func() *sim.Stats {
			if err := m.Run(instr); err != nil {
				t.Fatal(err)
			}
			return m.Stats()
		}
	}
	inj, err := fault.New(fault.Config{Class: fault.ClassTagFlip, Rate: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	faulted := run(shared.Replay(), inj)
	clean := run(shared.Replay(), nil)
	if st := faulted(); st.FaultTagFlips == 0 {
		t.Fatal("the injector flipped no tags; the test exercises nothing")
	}
	got, want := clean(), run(fresh.Replay(), nil)()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clean replay after a faulted one differs from a fresh load:\n--- fresh\n%s--- after fault\n%s",
			want.Canonical(), got.Canonical())
	}
}

// sliceSource streams a fixed event list through Next, with request
// marks, and explains its end through Err.
type sliceSource struct {
	ev    []isa.BlockEvent
	req   []uint64
	done  []bool
	reqs  []uint64
	base  uint64 // Requests before the first event
	pos   int
	instr uint64
}

var errFuzzEnd = errors.New("fuzz stream ended")

func (s *sliceSource) Next() isa.BlockEvent {
	if s.pos == len(s.ev) {
		return isa.BlockEvent{}
	}
	s.pos++
	s.instr += uint64(s.ev[s.pos-1].NumInstr)
	return s.ev[s.pos-1]
}
func (s *sliceSource) Instructions() uint64 { return s.instr }
func (s *sliceSource) Requests() uint64 {
	if s.pos == 0 {
		return s.base
	}
	return s.reqs[s.pos-1]
}
func (s *sliceSource) CurrentType() int { return 0 }
func (s *sliceSource) Stage() int16     { return -1 }
func (s *sliceSource) Depth() int       { return 0 }
func (s *sliceSource) CurrentRequest() uint64 {
	if s.pos == 0 {
		return 0
	}
	return s.req[s.pos-1]
}
func (s *sliceSource) RequestDone() bool { return s.pos > 0 && s.done[s.pos-1] }
func (s *sliceSource) Err() error {
	if s.pos < len(s.ev) {
		return nil
	}
	return errFuzzEnd
}

// memSource is sliceSource with the in-place fill: Batch hands over the
// remaining arrays and moves the cursor to the end.
type memSource struct{ sliceSource }

func (s *memSource) Batch() ([]isa.BlockEvent, []uint64, []bool, []uint64) {
	i := s.pos
	for s.pos < len(s.ev) {
		s.Next()
	}
	return s.ev[i:], s.req[i:], s.done[i:], s.reqs[i:]
}

// decodeStream turns fuzz bytes into a short event stream over a few
// dozen blocks: three bytes per event choose the block, the length,
// the terminator (taken or not, tagged or not) and the request marks.
// Each event's target is the next event's address, so predictions can
// succeed as well as fail.
func decodeStream(data []byte) sliceSource {
	const base = isa.Addr(0x400000)
	var s sliceSource
	s.base = uint64(len(data) % 7)
	reqs, id := s.base, uint64(0)
	for i := 0; i+2 < len(data); i += 3 {
		a, b, c := data[i], data[i+1], data[i+2]
		ev := isa.BlockEvent{
			Addr:     base + isa.Addr(a%48)*isa.BlockSize,
			NumInstr: uint16(1 + int(c)%isa.InstrPerBlock),
			Branch:   isa.BranchKind(b % 6),
			Taken:    b&8 != 0,
			Tagged:   b&16 != 0,
			Func:     isa.FuncID(a % 5),
		}
		ev.BrPC = ev.EndAddr() - isa.InstrSize
		if b&32 != 0 {
			reqs++
			id = reqs
		}
		s.ev = append(s.ev, ev)
		s.req = append(s.req, id)
		s.done = append(s.done, b&64 != 0)
		s.reqs = append(s.reqs, reqs)
	}
	for i := range s.ev {
		if i+1 < len(s.ev) {
			s.ev[i].Target = s.ev[i+1].Addr
		} else {
			s.ev[i].Target = s.ev[i].EndAddr()
		}
	}
	return s
}

// identities restates the accounting laws that hold exactly for every
// run: each clean demand miss is served by one level, each late hit has
// one origin, and the per-level and per-distance breakdowns add up.
func identities(st *sim.Stats) error {
	sum := func(xs []uint64) (t uint64) {
		for _, x := range xs {
			t += x
		}
		return t
	}
	switch {
	case st.L1IDemandMisses != st.ServedL2+st.ServedLLC+st.ServedMem:
		return fmt.Errorf("L1IDemandMisses %d != ServedL2+ServedLLC+ServedMem", st.L1IDemandMisses)
	case st.L1ILateHits != st.LateFDIP+st.LatePF:
		return fmt.Errorf("L1ILateHits %d != LateFDIP+LatePF", st.L1ILateHits)
	case st.LateFDIP != sum(st.LateFDIPByLevel[:]):
		return fmt.Errorf("LateFDIP %d != sum(LateFDIPByLevel)", st.LateFDIP)
	case st.LatePF != sum(st.LatePFByLevel[:]):
		return fmt.Errorf("LatePF %d != sum(LatePFByLevel)", st.LatePF)
	case st.PFDistCount != sum(st.PFDistHist):
		return fmt.Errorf("PFDistCount %d != sum(PFDistHist)", st.PFDistCount)
	case st.PFUseful != sum(st.PFDistUseful):
		return fmt.Errorf("PFUseful %d != sum(PFDistUseful)", st.PFUseful)
	}
	return nil
}

// FuzzEventPath feeds one random short stream through a streaming
// source and through an in-place Batch source, under a random FTQ size
// and a random chunking into Run, SkipFunctional and ResetStats calls.
// Both machines must agree on the full statistics and on the latched
// end-of-stream error after every call, count the requests the source
// counted, and satisfy the accounting identities.
func FuzzEventPath(f *testing.F) {
	f.Add(uint8(4), int64(1), []byte{0, 1, 2, 3, 9, 5, 6, 33, 8, 1, 66, 7})
	f.Add(uint8(1), int64(7), []byte("the quick brown fox jumps over the lazy dog, again and again"))
	f.Add(uint8(31), int64(-3), make([]byte, 300))
	// One block, a request per event: a skip right after the cursor ran
	// ahead must not lose the requests it pulled.
	f.Add(uint8(31), int64(-38), bytes.Repeat([]byte("0"), 165))
	f.Fuzz(func(t *testing.T, ftq uint8, seed int64, data []byte) {
		stream := decodeStream(data)
		batch := &memSource{stream}
		prm := sim.DefaultParams()
		prm.FTQEntries = 1 + int(ftq)%48
		// Caches smaller than the stream's footprint, so evictions and
		// MSHR pressure happen within a few dozen events.
		prm.L1ISets, prm.L1IWays, prm.L2Sets, prm.LLCSets, prm.MSHRs = 4, 2, 8, 8, 1+int(ftq)%4
		var ms [2]*sim.Machine
		for i, src := range []sim.EventSource{&stream, batch} {
			m, err := sim.New(prm, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			ms[i] = m
		}
		rng := rand.New(rand.NewSource(seed))
		var requests uint64 // the streaming source's own count over the measured Runs
		for step := 0; step < 64; step++ {
			op, n := rng.Intn(8), uint64(1+rng.Intn(64))
			r0 := stream.Requests()
			var errs [2]string
			for i, m := range ms {
				var err error
				switch op {
				case 0:
					err = m.SkipFunctional(n)
				case 1:
					m.ResetStats()
				default:
					err = m.Run(n)
				}
				if err != nil {
					if !errors.Is(err, errFuzzEnd) {
						t.Fatalf("step %d: machine %d failed with %v, want the source's end", step, i, err)
					}
					errs[i] = err.Error()
				}
				if err := identities(m.Stats()); err != nil {
					t.Fatalf("step %d: machine %d: %v", step, i, err)
				}
			}
			if op == 1 {
				requests = 0
			} else if op > 1 {
				requests += stream.Requests() - r0
			}
			if got := ms[0].Stats().Requests; got != requests {
				t.Fatalf("step %d: Stats.Requests %d, the source counted %d", step, got, requests)
			}
			if errs[0] != errs[1] {
				t.Fatalf("step %d: streaming error %q, batch error %q", step, errs[0], errs[1])
			}
			if a, b := ms[0].Stats(), ms[1].Stats(); !reflect.DeepEqual(a, b) {
				t.Fatalf("step %d (op %d, n %d): statistics differ:\n--- streaming\n%s--- batch\n%s",
					step, op, n, a.Canonical(), b.Canonical())
			}
			if errs[0] != "" {
				return
			}
		}
	})
}
