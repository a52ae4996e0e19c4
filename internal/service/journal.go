package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
)

// The write-ahead job journal. Every job lifecycle transition — submit,
// start (one per attempt), terminal — is appended as a length-prefixed,
// CRC-guarded record before the transition is acknowledged, so a server
// restarted against the same journal can replay every job that was
// queued or in flight when the process died. Determinism makes the
// replay exact: a re-executed job produces the identical StatsDigest
// the lost attempt would have.
//
// File layout: a 10-byte header (u64 magic, u16 version), then records.
// Each record is
//
//	u32 payload length | payload | u32 CRC-32 (IEEE) of payload
//
// with the payload encoded by the same overflow-safe little-endian
// conventions as internal/binfmt (bounds-checked reads, length prefixes
// checked against the remaining input). Decoding stops at the first
// torn or corrupt record: the valid prefix replays, the tail is
// discarded — a crash mid-append never poisons startup.
//
// A submit record carries the submitter's request as its JSON encoding
// (the same struct its HTTP API decodes), which the journal stores as
// opaque bytes: the server decodes it back into a RunRequest on replay,
// a fleet coordinator into its SweepSpec. A request field added later
// therefore needs no change here, and a field this build does not know
// fails that one job by name on replay instead of the record reading
// as corrupt.
//
// Appends are group-committed: concurrent Append calls coalesce into
// one write + one fsync performed by a dedicated flusher goroutine, and
// every call returns only after the batch containing its record is
// durable.

// journalMagic identifies the journal format ("HPJL" + version byte
// packed, same style as binfmt.Magic).
const journalMagic = 0x4850_4A4C_0001_0001

// journalVersion is the current journal format version. It changes only
// when the framing or a record's own layout changes — never for a new
// request field, which rides inside a submit record's JSON body.
// Journals from other versions are rejected at startup, with an error
// naming both versions and the remediation, rather than misread
// (operators drain or delete the old journal before upgrading).
const journalVersion = 7

const journalHeaderSize = 10

// journalOp discriminates record payloads.
type journalOp uint8

const (
	// opSubmit records a validated, admitted job and its full request
	// (JSON bytes).
	opSubmit journalOp = 1
	// opStart records one execution attempt beginning (1-based attempt).
	opStart journalOp = 2
	// opFinish records a terminal transition; jobs with a finish record
	// are never replayed.
	opFinish journalOp = 3
	// opSeq preserves the high-water job sequence number across
	// compaction, so restarted servers never reissue an id.
	opSeq journalOp = 4
	// opAssign records a backend assignment made by a fleet coordinator:
	// the sub-job Key of job ID was dispatched to Backend. Replay uses
	// the last assignment per key to prefer the same (cache-warm)
	// backend. Plain hpserved jobs never write these.
	opAssign journalOp = 5
)

// journalRecord is the decoded form of one journal entry. Only the
// fields relevant to the record's Op are meaningful.
type journalRecord struct {
	Op journalOp
	ID string

	// opSubmit
	Kind string
	Req  []byte

	// opStart
	Attempt uint32

	// opFinish
	State  JobState
	ErrMsg string
	Digest string

	// opSeq
	Seq uint64

	// opAssign
	Key     string
	Backend string
}

// jwriter serialises with little-endian fixed-width fields
// (binfmt-style).
type jwriter struct{ buf []byte }

func (w *jwriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *jwriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *jwriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *jwriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// jreader decodes with bounds checking; a hostile length prefix cannot
// overflow the cursor or force a huge allocation.
type jreader struct {
	buf []byte
	off int
	err error
}

func (r *jreader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.err = fmt.Errorf("journal: truncated payload at offset %d (need %d of %d)", r.off, n, len(r.buf))
		return false
	}
	return true
}
func (r *jreader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}
func (r *jreader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}
func (r *jreader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}
func (r *jreader) str() string {
	n := int(r.u32())
	if !r.need(n) {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// finishStateCode maps terminal states to their wire codes.
func finishStateCode(s JobState) (uint8, bool) {
	switch s {
	case JobDone:
		return 1, true
	case JobFailed:
		return 2, true
	case JobCanceled:
		return 3, true
	}
	return 0, false
}

func finishStateFromCode(c uint8) (JobState, bool) {
	switch c {
	case 1:
		return JobDone, true
	case 2:
		return JobFailed, true
	case 3:
		return JobCanceled, true
	}
	return "", false
}

// encodeJournalPayload serialises one record payload (without framing).
func encodeJournalPayload(rec journalRecord) ([]byte, error) {
	w := &jwriter{buf: make([]byte, 0, 64)}
	w.u8(uint8(rec.Op))
	w.str(rec.ID)
	switch rec.Op {
	case opSubmit:
		w.str(rec.Kind)
		w.str(string(rec.Req))
	case opStart:
		w.u32(rec.Attempt)
	case opFinish:
		code, ok := finishStateCode(rec.State)
		if !ok {
			return nil, fmt.Errorf("journal: finish record with non-terminal state %q", rec.State)
		}
		w.u8(code)
		w.str(rec.ErrMsg)
		w.str(rec.Digest)
	case opSeq:
		w.u64(rec.Seq)
	case opAssign:
		w.str(rec.Key)
		w.str(rec.Backend)
	default:
		return nil, fmt.Errorf("journal: unknown op %d", rec.Op)
	}
	return w.buf, nil
}

// decodeJournalPayload parses one record payload; the whole payload must
// be consumed (trailing bytes mean corruption).
func decodeJournalPayload(payload []byte) (journalRecord, error) {
	r := &jreader{buf: payload}
	rec := journalRecord{Op: journalOp(r.u8())}
	rec.ID = r.str()
	switch rec.Op {
	case opSubmit:
		rec.Kind = r.str()
		rec.Req = []byte(r.str())
	case opStart:
		rec.Attempt = r.u32()
	case opFinish:
		state, ok := finishStateFromCode(r.u8())
		if r.err == nil && !ok {
			r.err = fmt.Errorf("journal: invalid finish state code")
		}
		rec.State = state
		rec.ErrMsg = r.str()
		rec.Digest = r.str()
	case opSeq:
		rec.Seq = r.u64()
	case opAssign:
		rec.Key = r.str()
		rec.Backend = r.str()
	default:
		return rec, fmt.Errorf("journal: unknown op %d", rec.Op)
	}
	if r.err != nil {
		return rec, r.err
	}
	if r.off != len(payload) {
		return rec, fmt.Errorf("journal: %d trailing payload bytes", len(payload)-r.off)
	}
	return rec, nil
}

// frameRecord wraps an encoded payload in the on-disk framing.
func frameRecord(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+8)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// journalHeader returns the encoded file header.
func journalHeader() []byte {
	w := &jwriter{buf: make([]byte, 0, journalHeaderSize)}
	w.u64(journalMagic)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, journalVersion)
	return w.buf
}

// errJournalHeader marks a journal whose header identifies a different
// file format entirely — startup refuses to touch it.
var errJournalHeader = errors.New("journal: bad magic (not a job journal?)")

// versionError explains a journal written by a different format version:
// it names the version found, the version this build writes, and the
// remediation, so the operator is not left staring at a bare decode
// failure.
func versionError(found uint16) error {
	return fmt.Errorf("journal: format v%d found, this build reads/writes v%d; "+
		"finish or cancel its pending jobs with the matching build, or delete the journal file, before upgrading",
		found, journalVersion)
}

// decodeJournal parses a journal image. It returns every record in the
// longest valid prefix plus the number of bytes that prefix occupies;
// corruption past the header stops the scan without erroring (the tail
// is a torn write, the prefix is the journal). Only an unrecognisable
// header or a version mismatch is an error. Inputs shorter than a header
// decode as an empty journal — a crash during creation must not brick
// the next start.
func decodeJournal(data []byte) ([]journalRecord, int, error) {
	if len(data) < journalHeaderSize {
		return nil, 0, nil
	}
	if binary.LittleEndian.Uint64(data) != journalMagic {
		return nil, 0, errJournalHeader
	}
	if v := binary.LittleEndian.Uint16(data[8:]); v != journalVersion {
		return nil, 0, versionError(v)
	}
	var recs []journalRecord
	off := journalHeaderSize
	for {
		if len(data)-off < 4 {
			break
		}
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		if n > int64(len(data)-off-8) {
			break // torn tail
		}
		payload := data[off+4 : off+4+int(n)]
		sum := binary.LittleEndian.Uint32(data[off+4+int(n):])
		if crc32.ChecksumIEEE(payload) != sum {
			break // bit rot
		}
		rec, err := decodeJournalPayload(payload)
		if err != nil {
			break // structurally invalid payload
		}
		recs = append(recs, rec)
		off += 4 + int(n) + 4
	}
	return recs, off, nil
}

// ReplayJob is one journaled job that never reached a terminal state and
// must be re-admitted on startup (by hpserved's worker pool, or by a
// fleet coordinator re-running a sweep).
type ReplayJob struct {
	ID   string
	Kind string
	// Req is the submitted request's JSON encoding, as journaled; the
	// re-admitting side decodes it into its own request type.
	Req []byte
	// Attempts is the highest attempt number journaled; >0 means the job
	// was in flight (orphaned) when the process died.
	Attempts int
	// Assignments maps sub-job keys to the backend each was last
	// dispatched to (fleet coordinator jobs only; nil otherwise). A
	// recovering coordinator prefers the journaled backend so re-run
	// work lands on caches the lost life already warmed.
	Assignments map[string]string
}

// pendingFromRecords folds a record sequence into the pending-job set
// and the high-water job sequence number. The fold is order-independent
// per job id (a finish anywhere marks the id terminal), which makes
// replay robust to batches landing out of submit order.
func pendingFromRecords(recs []journalRecord) ([]ReplayJob, uint64) {
	type slot struct {
		job  ReplayJob
		seen bool
	}
	byID := map[string]*slot{}
	var order []string
	terminal := map[string]bool{}
	attempts := map[string]int{}
	assigns := map[string]map[string]string{}
	var maxSeq uint64

	noteSeq := func(id string) {
		var n uint64
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
		if _, err := fmt.Sscanf(id, "swp-%d", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
	}
	for _, rec := range recs {
		switch rec.Op {
		case opSubmit:
			noteSeq(rec.ID)
			if s, ok := byID[rec.ID]; ok && s.seen {
				continue // duplicate submit: keep the first
			}
			byID[rec.ID] = &slot{job: ReplayJob{ID: rec.ID, Kind: rec.Kind, Req: rec.Req}, seen: true}
			order = append(order, rec.ID)
		case opStart:
			noteSeq(rec.ID)
			if int(rec.Attempt) > attempts[rec.ID] {
				attempts[rec.ID] = int(rec.Attempt)
			}
		case opFinish:
			noteSeq(rec.ID)
			terminal[rec.ID] = true
		case opSeq:
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
		case opAssign:
			if assigns[rec.ID] == nil {
				assigns[rec.ID] = map[string]string{}
			}
			assigns[rec.ID][rec.Key] = rec.Backend // last assignment wins
		}
	}
	var pending []ReplayJob
	for _, id := range order {
		if terminal[id] {
			continue
		}
		j := byID[id].job
		j.Attempts = attempts[id]
		j.Assignments = assigns[id]
		pending = append(pending, j)
	}
	return pending, maxSeq
}

// Journal is the open, append-only write-ahead log. Safe for concurrent
// use; create with OpenJournal.
type Journal struct {
	path string

	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	pending []byte        // encoded frames awaiting the next group commit
	round   chan struct{} // closed when the batch holding current pending is durable
	err     error         // first write/sync failure, sticky
	closed  bool

	flusherDone chan struct{}
}

// OpenJournal opens (or creates) the journal at path, replays its
// records, and compacts it: the rewritten file holds only the header, a
// sequence high-water record, and the still-pending jobs, so the
// journal's size is bounded by the live job set rather than by history.
// It returns the open journal, the jobs to re-admit (submit order), and
// the highest job sequence number ever issued against this journal.
func OpenJournal(path string) (*Journal, []ReplayJob, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, 0, fmt.Errorf("journal: read %s: %w", path, err)
	}
	var pending []ReplayJob
	var maxSeq uint64
	if len(data) > 0 {
		recs, _, derr := decodeJournal(data)
		if derr != nil {
			return nil, nil, 0, fmt.Errorf("journal: %s: %w", path, derr)
		}
		pending, maxSeq = pendingFromRecords(recs)
	}

	// Compact via temp file + atomic rename; a crash at any point leaves
	// either the old journal or the complete new one.
	tmp := path + ".tmp"
	buf := journalHeader()
	if seqPayload, err := encodeJournalPayload(journalRecord{Op: opSeq, Seq: maxSeq}); err == nil {
		buf = append(buf, frameRecord(seqPayload)...)
	}
	for _, rj := range pending {
		payload, err := encodeJournalPayload(journalRecord{Op: opSubmit, ID: rj.ID, Kind: rj.Kind, Req: rj.Req})
		if err != nil {
			return nil, nil, 0, err
		}
		buf = append(buf, frameRecord(payload)...)
		if rj.Attempts > 0 {
			payload, err := encodeJournalPayload(journalRecord{Op: opStart, ID: rj.ID, Attempt: uint32(rj.Attempts)})
			if err != nil {
				return nil, nil, 0, err
			}
			buf = append(buf, frameRecord(payload)...)
		}
		// Assignments survive compaction (sorted for a canonical file).
		keys := make([]string, 0, len(rj.Assignments))
		for k := range rj.Assignments {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			payload, err := encodeJournalPayload(journalRecord{Op: opAssign, ID: rj.ID, Key: k, Backend: rj.Assignments[k]})
			if err != nil {
				return nil, nil, 0, err
			}
			buf = append(buf, frameRecord(payload)...)
		}
	}
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return nil, nil, 0, fmt.Errorf("journal: write %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, nil, 0, fmt.Errorf("journal: rename: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: open %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("journal: sync %s: %w", path, err)
	}

	jl := &Journal{
		path:        path,
		f:           f,
		round:       make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	jl.cond = sync.NewCond(&jl.mu)
	go jl.flusher()
	return jl, pending, maxSeq, nil
}

// Path returns the journal's file path.
func (jl *Journal) Path() string { return jl.path }

// Append encodes rec and blocks until the group commit containing it is
// written and fsynced (or until the journal hits a sticky I/O error).
func (jl *Journal) Append(rec journalRecord) error {
	payload, err := encodeJournalPayload(rec)
	if err != nil {
		return err
	}
	frame := frameRecord(payload)

	jl.mu.Lock()
	if jl.closed {
		jl.mu.Unlock()
		return fmt.Errorf("journal: closed")
	}
	if jl.err != nil {
		err := jl.err
		jl.mu.Unlock()
		return err
	}
	jl.pending = append(jl.pending, frame...)
	round := jl.round
	jl.cond.Signal()
	jl.mu.Unlock()

	<-round

	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.err
}

// flusher is the single writer goroutine: it drains every frame pending
// at wake-up into one write + one fsync (group commit), then releases
// all the appenders waiting on that round.
func (jl *Journal) flusher() {
	defer close(jl.flusherDone)
	for {
		jl.mu.Lock()
		for len(jl.pending) == 0 && !jl.closed {
			jl.cond.Wait()
		}
		if len(jl.pending) == 0 && jl.closed {
			jl.mu.Unlock()
			return
		}
		batch := jl.pending
		jl.pending = nil
		round := jl.round
		jl.round = make(chan struct{})
		f := jl.f
		jl.mu.Unlock()

		_, werr := f.Write(batch)
		serr := f.Sync()

		jl.mu.Lock()
		if jl.err == nil {
			if werr != nil {
				jl.err = werr
			} else {
				jl.err = serr
			}
		}
		jl.mu.Unlock()
		close(round)
	}
}

// The exported Append helpers let other packages (the fleet coordinator)
// drive the same write-ahead log the server uses, without exposing the
// wire-level record type.

// AppendSubmit journals an admitted job and its full request, stored as
// the request's JSON encoding.
func (jl *Journal) AppendSubmit(id, kind string, req any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("journal: encoding %s request: %w", id, err)
	}
	return jl.Append(journalRecord{Op: opSubmit, ID: id, Kind: kind, Req: body})
}

// AppendStart journals one execution attempt beginning (1-based).
func (jl *Journal) AppendStart(id string, attempt int) error {
	return jl.Append(journalRecord{Op: opStart, ID: id, Attempt: uint32(attempt)})
}

// AppendAssign journals a backend assignment: sub-job key of job id was
// dispatched to backend. Recovery replays the last assignment per key.
func (jl *Journal) AppendAssign(id, key, backend string) error {
	return jl.Append(journalRecord{Op: opAssign, ID: id, Key: key, Backend: backend})
}

// AppendFinish journals a terminal transition (state must be terminal);
// digest carries the result fingerprint for completed work.
func (jl *Journal) AppendFinish(id string, state JobState, errMsg, digest string) error {
	return jl.Append(journalRecord{Op: opFinish, ID: id, State: state, ErrMsg: errMsg, Digest: digest})
}

// Close drains pending appends, fsyncs, and closes the file. Safe to
// call more than once.
func (jl *Journal) Close() error {
	jl.mu.Lock()
	if jl.closed {
		err := jl.err
		jl.mu.Unlock()
		return err
	}
	jl.closed = true
	jl.cond.Signal()
	jl.mu.Unlock()

	<-jl.flusherDone

	jl.mu.Lock()
	defer jl.mu.Unlock()
	if err := jl.f.Close(); err != nil && jl.err == nil {
		jl.err = err
	}
	return jl.err
}
