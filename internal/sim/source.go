package sim

import "hprefetch/internal/isa"

// EventSource feeds the machine its retired block-event stream. The
// live implementations are trace.Engine (interpreting the synthetic
// program) and microsvc.Engine (interleaving request chains);
// tracefile.Reader replays a recorded stream and tracefile.Recorder
// tees a live one to disk. The machine pulls every source through one
// lookahead window, so it cannot tell record, replay and live apart
// (which is exactly the digest-equality guarantee).
//
// The counters follow the engine's sampling contract: they describe
// the state after the most recently returned event and are only
// meaningful between Next calls.
//
// A live engine's stream is unbounded. A finite source (a trace file)
// signals its end by returning a zero event (NumInstr == 0) from Next;
// sources that can also explain why should implement
//
//	Err() error
//
// which the machine consults to report the cause (e.g. a truncated
// trace) instead of a bare exhaustion error.
type EventSource interface {
	// Next returns the next retired block event.
	Next() isa.BlockEvent
	// Instructions is the total instructions emitted so far.
	Instructions() uint64
	// Requests is how many requests have been started so far.
	Requests() uint64
	// CurrentType is the request type being processed.
	CurrentType() int
	// Stage is the effective pipeline stage (program.NoStage outside one).
	Stage() int16
	// Depth is the current simulated call-stack depth.
	Depth() int
}

// BatchSource is the optional interface of a fully decoded in-memory
// source (tracefile.MemReader). Instead of copying Next results into
// its own buffer, the machine's lookahead window aliases the arrays
// Batch returns and reads them in place; everything else about the run
// is the same code, so every digest is too.
type BatchSource interface {
	EventSource
	// Batch hands over the undelivered remainder of the stream as flat
	// parallel slices: the events, each event's request id and
	// request-done flag (as RequestMarker would report them after it),
	// and the Requests count after it. The slices alias the source's
	// decoded storage and must not be mutated. The source's cursor moves
	// to the end of the stream, as if Next had run until it returned the
	// zero event, so Instructions and Err report the exhausted state.
	Batch() (ev []isa.BlockEvent, req []uint64, done []bool, reqs []uint64)
}

// RequestMarker is the optional per-request boundary interface. Sources
// that implement it (trace.Engine, the tracefile readers and Recorder,
// the microservice interleaver) let the machine attribute fetch stall
// to individual requests and fill the per-request tail histogram; plain
// synthetic sources without it still simulate, just without tail stats.
//
// Both methods follow the sampling contract above: they describe the
// most recently returned event.
type RequestMarker interface {
	// CurrentRequest is the id of the request the event belongs to.
	// Ids are unique per in-flight request; an interleaving source may
	// return non-monotonic ids as it hops between concurrent requests.
	CurrentRequest() uint64
	// RequestDone reports whether the event was its request's last.
	RequestDone() bool
}
