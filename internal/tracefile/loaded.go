package tracefile

import (
	"errors"
	"fmt"

	"hprefetch/internal/isa"
)

// Loaded is a fully decoded in-memory trace. Decoding (CRC checks,
// inflate, varint/delta reconstruction) happens once in Load; Replay
// then hands out independent cursors whose Next is an array read —
// strictly cheaper than regenerating the stream live. This is the
// intended shape for replay-backed experiments, where one recorded
// trace feeds every scheme of a comparison: decode once, replay many.
type Loaded struct {
	meta       Meta
	startInstr uint64
	startAttrs Attrs
	endInstr   uint64 // Instructions after the last event
	events     []isa.BlockEvent
	// The attribution sampled after each event, one column per Attrs
	// field, so the simulator reads the request columns in place
	// (MemReader.Batch); MemReader.Next reassembles an Attrs.
	requests, reqID []uint64
	typ, depth      []int
	stage           []int16
	done            []bool
	term            error // terminal condition: ErrExhausted, or wraps ErrTruncated
}

// Load decodes an entire trace into memory. A torn tail is not an
// error here either: the intact prefix loads and every cursor reports
// the truncation (via Err) once it runs past the end, mirroring the
// streaming Reader's contract. Corruption is different: a trace whose
// decode ends in ErrCorrupt fails Load outright — a damaged trace must
// never yield a replayable prefix.
func Load(path string) (*Loaded, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	l := &Loaded{
		meta:       r.Meta(),
		startInstr: r.Instructions(),
		startAttrs: r.cur,
	}
	n := 0
	if r.index != nil {
		n = int(r.total.Events)
	}
	l.events = make([]isa.BlockEvent, 0, n)
	l.requests, l.reqID = make([]uint64, 0, n), make([]uint64, 0, n)
	l.typ, l.depth = make([]int, 0, n), make([]int, 0, n)
	l.stage, l.done = make([]int16, 0, n), make([]bool, 0, n)
	for {
		ev := r.Next()
		if ev.NumInstr == 0 {
			break
		}
		a := r.cur
		l.events = append(l.events, ev)
		l.requests, l.reqID = append(l.requests, a.Requests), append(l.reqID, a.Request)
		l.typ, l.depth = append(l.typ, a.Type), append(l.depth, a.Depth)
		l.stage, l.done = append(l.stage, a.Stage), append(l.done, a.Done)
	}
	if errors.Is(r.Err(), ErrCorrupt) {
		return nil, fmt.Errorf("tracefile: %s: %w", path, r.Err())
	}
	l.term = r.Err()
	l.endInstr = r.Instructions()
	return l, nil
}

// attrsAt reassembles the attribution sampled after event i.
func (l *Loaded) attrsAt(i int) Attrs {
	return Attrs{
		Requests: l.requests[i],
		Type:     l.typ[i],
		Stage:    l.stage[i],
		Depth:    l.depth[i],
		Request:  l.reqID[i],
		Done:     l.done[i],
	}
}

// Meta returns the trace's identity header.
func (l *Loaded) Meta() Meta { return l.meta }

// Events returns the number of decoded events.
func (l *Loaded) Events() int { return len(l.events) }

// Complete reports whether the decoded stream reached the trace's
// clean end (false for a truncated file's intact prefix).
func (l *Loaded) Complete() bool { return l.term == ErrExhausted }

// Replay returns a fresh cursor positioned at the recorded pre-stream
// state. Cursors are independent; any number may stream concurrently.
func (l *Loaded) Replay() *MemReader {
	return &MemReader{l: l, instr: l.startInstr, cur: l.startAttrs}
}

// MemReader streams a Loaded trace as an event source (it satisfies
// Source and sim.EventSource) with the same sentinel-and-Err contract
// as the file-backed Reader.
type MemReader struct {
	l     *Loaded
	pos   int
	instr uint64
	cur   Attrs
}

// Next returns the next event, or a zero event once the stream has
// ended — inspect Err for whether the end was clean.
func (m *MemReader) Next() isa.BlockEvent {
	if m.pos >= len(m.l.events) {
		return isa.BlockEvent{}
	}
	ev := m.l.events[m.pos]
	m.cur = m.l.attrsAt(m.pos)
	m.pos++
	m.instr += uint64(ev.NumInstr)
	return ev
}

// Err mirrors Reader.Err: nil while events remain, then the loaded
// trace's terminal condition.
func (m *MemReader) Err() error {
	if m.pos < len(m.l.events) {
		return nil
	}
	return m.l.term
}

// Instructions, Requests, CurrentType, Stage, Depth, CurrentRequest and
// RequestDone follow the engine's sampling contract (state after the
// most recent event).
func (m *MemReader) Instructions() uint64   { return m.instr }
func (m *MemReader) Requests() uint64       { return m.cur.Requests }
func (m *MemReader) CurrentType() int       { return m.cur.Type }
func (m *MemReader) Stage() int16           { return m.cur.Stage }
func (m *MemReader) Depth() int             { return m.cur.Depth }
func (m *MemReader) CurrentRequest() uint64 { return m.cur.Request }
func (m *MemReader) RequestDone() bool      { return m.cur.Done }

// Batch hands the undelivered remainder of the stream to a consumer
// that delivers it itself, satisfying sim.BatchSource: the events, each
// event's request id and request-done flag, and the Requests count
// after it, as flat parallel slices aliasing the Loaded trace (they
// must not be mutated). The cursor moves to the end of the stream, as
// if Next had run until it returned the zero event, so Instructions,
// the sampled attributes and Err report the exhausted state.
func (m *MemReader) Batch() (ev []isa.BlockEvent, req []uint64, done []bool, reqs []uint64) {
	l, i := m.l, m.pos
	if n := len(l.events); i < n {
		m.pos, m.instr, m.cur = n, l.endInstr, l.attrsAt(n-1)
	}
	return l.events[i:], l.reqID[i:], l.done[i:], l.requests[i:]
}
