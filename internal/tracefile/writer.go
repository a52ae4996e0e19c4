package tracefile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"hprefetch/internal/isa"
)

// Options tunes trace writing.
type Options struct {
	// FrameEvents is how many events each compressed frame holds
	// (default DefaultFrameEvents; tests use small frames to exercise
	// frame boundaries cheaply).
	FrameEvents int
}

func (o Options) frameEvents() int {
	if o.FrameEvents > 0 {
		return o.FrameEvents
	}
	return DefaultFrameEvents
}

// Summary describes a finished recording.
type Summary struct {
	Frames       int
	Events       uint64
	Instructions uint64
	Requests     uint64
	// Bytes is the total file size, header and index included.
	Bytes int64
}

// frameEntry is one frame's index entry.
type frameEntry struct {
	Off           int64
	Events        uint64
	StartInstr    uint64
	StartRequests uint64
}

// Writer serialises an event stream to the trace format. Create one
// with NewWriter (caller-owned io.Writer) or Create (owned file), feed
// it with Append, and Close it to seal the index and trailer — a trace
// missing its index is read as truncated.
type Writer struct {
	w   io.Writer
	f   *os.File // non-nil when Create owns the file
	opt Options

	off    int64
	frames []frameEntry

	start  frameStart
	events []isa.BlockEvent
	attrs  []Attrs

	prev   Attrs
	instr  uint64
	total  uint64
	closed bool
	err    error
}

// NewWriter starts a trace on w. start must be the source's observable
// state before its first event (sample it before any Next call).
func NewWriter(w io.Writer, meta Meta, start Attrs, opt Options) (*Writer, error) {
	tw := &Writer{
		w:      w,
		opt:    opt,
		start:  frameStart{A: start},
		prev:   start,
		events: make([]isa.BlockEvent, 0, opt.frameEvents()),
		attrs:  make([]Attrs, 0, opt.frameEvents()),
	}
	hdr := make([]byte, 0, headerPrefixSize)
	hdr = binary.LittleEndian.AppendUint64(hdr, traceMagic)
	hdr = binary.LittleEndian.AppendUint16(hdr, traceVersion)
	if _, err := w.Write(hdr); err != nil {
		tw.err = err
		return nil, err
	}
	tw.off = headerPrefixSize
	if err := tw.writeFramed(encodeMeta(meta)); err != nil {
		return nil, err
	}
	return tw, nil
}

// Create starts a trace file at path; Close syncs and closes it.
func Create(path string, meta Meta, start Attrs, opt Options) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, meta, start, opt)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.f = f
	return w, nil
}

// Err returns the writer's first I/O or encoding failure, if any.
func (w *Writer) Err() error { return w.err }

// Append records one event and the source attribution sampled after it.
// Events the format cannot represent exactly (violating the engine's
// stream invariants) are rejected rather than silently mangled.
func (w *Writer) Append(ev isa.BlockEvent, a Attrs) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("tracefile: append after close")
	}
	switch {
	case ev.NumInstr == 0 || ev.NumInstr > isa.InstrPerBlock:
		w.err = fmt.Errorf("tracefile: event with %d instructions not representable", ev.NumInstr)
	case ev.Branch > isa.BrRet:
		w.err = fmt.Errorf("tracefile: branch kind %d not representable", ev.Branch)
	case ev.Branch == isa.BrNone && (ev.Target != ev.EndAddr() || ev.BrPC != 0):
		w.err = fmt.Errorf("tracefile: fall-through event with explicit target or branch PC")
	case ev.Branch != isa.BrNone && ev.BrPC != ev.EndAddr()-isa.InstrSize:
		w.err = fmt.Errorf("tracefile: branch PC %s not at end of region", ev.BrPC)
	case a.Requests < w.prev.Requests:
		w.err = fmt.Errorf("tracefile: request counter went backwards (%d -> %d)", w.prev.Requests, a.Requests)
	case a.Type < 0 || a.Type > maxTypeValue || a.Depth < 0 || a.Depth > maxDepth:
		w.err = fmt.Errorf("tracefile: attribution out of range (type %d, depth %d)", a.Type, a.Depth)
	case a.Request > maxRequestID:
		w.err = fmt.Errorf("tracefile: request id %d not representable", a.Request)
	}
	if w.err != nil {
		return w.err
	}
	w.events = append(w.events, ev)
	w.attrs = append(w.attrs, a)
	w.prev = a
	w.total++
	w.instr += uint64(ev.NumInstr)
	if len(w.events) >= w.opt.frameEvents() {
		return w.flushFrame()
	}
	return nil
}

// flushFrame compresses and writes the pending frame.
func (w *Writer) flushFrame() error {
	if w.err != nil {
		return w.err
	}
	if len(w.events) == 0 {
		return nil
	}
	body := encodeFrameBody(w.start, w.events, w.attrs)
	var buf bytes.Buffer
	buf.WriteByte(recTypeFrame)
	var lenBuf [binary.MaxVarintLen64]byte
	buf.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(body)))])
	fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		w.err = err
		return err
	}
	if _, err := fw.Write(body); err != nil {
		w.err = err
		return err
	}
	if err := fw.Close(); err != nil {
		w.err = err
		return err
	}
	entry := frameEntry{
		Off:           w.off,
		Events:        uint64(len(w.events)),
		StartInstr:    w.start.Instr,
		StartRequests: w.start.A.Requests,
	}
	if err := w.writeFramed(buf.Bytes()); err != nil {
		return err
	}
	w.frames = append(w.frames, entry)
	w.start = frameStart{Instr: w.instr, A: w.prev}
	w.events = w.events[:0]
	w.attrs = w.attrs[:0]
	return nil
}

// writeFramed writes one length-prefixed, CRC-guarded record.
func (w *Writer) writeFramed(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	rec := make([]byte, 0, len(payload)+8)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	if _, err := w.w.Write(rec); err != nil {
		w.err = err
		return err
	}
	w.off += int64(len(rec))
	return nil
}

// Close flushes the pending frame, writes the index record and the
// trailer, and (for Create writers) syncs and closes the file.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	w.flushFrame()
	indexOff := w.off
	if w.err == nil {
		w.writeFramed(w.encodeIndex())
	}
	if w.err == nil {
		tr := make([]byte, 0, trailerSize)
		tr = binary.LittleEndian.AppendUint64(tr, uint64(indexOff))
		tr = binary.LittleEndian.AppendUint64(tr, trailerMagic)
		if _, err := w.w.Write(tr); err != nil {
			w.err = err
		}
		w.off += trailerSize
	}
	if w.f != nil {
		if err := w.f.Sync(); err != nil && w.err == nil {
			w.err = err
		}
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	return w.err
}

// Summary reports what has been written so far.
func (w *Writer) Summary() Summary {
	return Summary{
		Frames:       len(w.frames),
		Events:       w.total,
		Instructions: w.instr,
		Requests:     w.prev.Requests,
		Bytes:        w.off,
	}
}

// encodeIndex serialises the frame index: per-frame entries
// (delta-encoded) followed by stream totals.
func (w *Writer) encodeIndex() []byte {
	bw := &bwriter{buf: make([]byte, 0, 16*len(w.frames)+32)}
	bw.u8(recTypeIndex)
	bw.uvarint(uint64(len(w.frames)))
	var prevOff int64
	var prevInstr, prevReq uint64
	for _, fr := range w.frames {
		bw.uvarint(uint64(fr.Off - prevOff))
		bw.uvarint(fr.Events)
		bw.uvarint(fr.StartInstr - prevInstr)
		bw.uvarint(fr.StartRequests - prevReq)
		prevOff, prevInstr, prevReq = fr.Off, fr.StartInstr, fr.StartRequests
	}
	bw.uvarint(w.total)
	bw.uvarint(w.instr)
	bw.uvarint(w.prev.Requests)
	return bw.buf
}

// decodeIndex parses an index payload (including the leading type byte).
func decodeIndex(payload []byte) ([]frameEntry, Summary, error) {
	r := &breader{buf: payload}
	if t := r.u8(); r.err == nil && t != recTypeIndex {
		return nil, Summary{}, fmt.Errorf("tracefile: record type %d is not an index", t)
	}
	n := r.uvarint()
	if r.err == nil && 4*n > uint64(len(payload)) {
		r.fail("implausible index frame count %d", n)
	}
	if r.err != nil {
		return nil, Summary{}, r.err
	}
	entries := make([]frameEntry, 0, n)
	var off int64
	var instr, req uint64
	for i := uint64(0); i < n && r.err == nil; i++ {
		off += int64(r.uvarint())
		ev := r.uvarint()
		instr += r.uvarint()
		req += r.uvarint()
		entries = append(entries, frameEntry{Off: off, Events: ev, StartInstr: instr, StartRequests: req})
	}
	var sum Summary
	sum.Frames = len(entries)
	sum.Events = r.uvarint()
	sum.Instructions = r.uvarint()
	sum.Requests = r.uvarint()
	if err := r.done(); err != nil {
		return nil, Summary{}, err
	}
	return entries, sum, nil
}

// Recorder tees an event source to a trace file while passing the
// stream through unchanged: hand it to the simulator in place of the
// engine and the run both executes live and leaves a replayable trace.
// It satisfies Source (and sim.EventSource) itself. Write failures are
// latched, not surfaced per event — the stream keeps flowing from the
// live source and Finish reports the failure.
type Recorder struct {
	src Source
	w   *Writer
}

// RecordTo tees src to a new trace file at path (sampling src's
// pre-stream state — call it before any Next on src).
func RecordTo(path string, src Source, meta Meta, opt Options) (*Recorder, error) {
	tw, err := Create(path, meta, sample(src), opt)
	if err != nil {
		return nil, err
	}
	return &Recorder{src: src, w: tw}, nil
}

func sample(src Source) Attrs {
	return Attrs{
		Requests: src.Requests(),
		Type:     src.CurrentType(),
		Stage:    src.Stage(),
		Depth:    src.Depth(),
		Request:  src.CurrentRequest(),
		Done:     src.RequestDone(),
	}
}

// Next pulls one event from the source, recording it and the
// attribution sampled after it.
func (r *Recorder) Next() isa.BlockEvent {
	ev := r.src.Next()
	if r.w.err == nil {
		r.w.Append(ev, sample(r.src)) //nolint:errcheck // latched in w.err, surfaced by Finish
	}
	return ev
}

// Instructions, Requests, CurrentType, Stage, Depth, CurrentRequest and
// RequestDone delegate to the live source.
func (r *Recorder) Instructions() uint64   { return r.src.Instructions() }
func (r *Recorder) Requests() uint64       { return r.src.Requests() }
func (r *Recorder) CurrentType() int       { return r.src.CurrentType() }
func (r *Recorder) Stage() int16           { return r.src.Stage() }
func (r *Recorder) Depth() int             { return r.src.Depth() }
func (r *Recorder) CurrentRequest() uint64 { return r.src.CurrentRequest() }
func (r *Recorder) RequestDone() bool      { return r.src.RequestDone() }

// Finish pulls tail extra events from the still-live source (see
// TailEvents) and seals the trace, returning its summary.
func (r *Recorder) Finish(tail int) (Summary, error) {
	for i := 0; i < tail && r.w.err == nil; i++ {
		r.Next()
	}
	err := r.w.Close()
	return r.w.Summary(), err
}

// Abort discards the recording: the file (if owned) is closed as-is,
// without index or trailer, and reads back as truncated.
func (r *Recorder) Abort() {
	r.w.closed = true
	if r.w.f != nil {
		r.w.f.Close() //nolint:errcheck // the recording is being discarded
	}
}

// Record drives src through a new trace file at path until at least
// minInstructions are covered, appends the lookahead tail, and seals
// the trace.
func Record(path string, src Source, meta Meta, minInstructions uint64, tail int, opt Options) (Summary, error) {
	rec, err := RecordTo(path, src, meta, opt)
	if err != nil {
		return Summary{}, err
	}
	for src.Instructions() < minInstructions && rec.w.err == nil {
		rec.Next()
	}
	return rec.Finish(tail)
}
