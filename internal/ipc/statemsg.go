package ipc

import (
	"encoding/binary"
	"fmt"

	"emeralds/internal/metrics"
)

// StateMessage is the single-writer, multi-reader, wait-free
// communication mechanism of §7 (reconstructed; see DESIGN.md). The
// design replaces a mailbox carrying periodic state updates (sensor
// readings, setpoints) with a shared variable: readers always want the
// freshest value, never a queue of stale ones, so the writer publishes
// into an N-deep circular buffer of versions and readers copy the most
// recently completed version. Neither side blocks, takes a lock, or
// touches the scheduler — write and read are O(size) copies plus O(1)
// index arithmetic.
//
// Consistency argument: the writer publishes version v into slot
// v mod N and only then advances the published index. A reader
// snapshots the published index, then copies that slot. The copy can
// only be torn if the writer laps the whole buffer and reuses the slot
// mid-copy, i.e. if at least N−1 writes complete during one read. So a
// depth N ≥ (maximum writes that can preempt one read) + 2 guarantees
// every read is consistent. MinDepth computes this bound; the
// adversarial tests in statemsg_test.go drive the exposed step API to
// show reads tear exactly when the bound is violated and never when it
// holds.
type StateMessage struct {
	ID    int
	Name  string
	size  int
	slots [][]byte
	seqs  []uint64 // version stored in each slot
	// published is the index of the newest completed version; ^0 means
	// nothing published yet.
	published uint64
	writes    uint64
	reads     uint64
	met       *metrics.Set // nil-safe; see Observe
}

// Observe directs the state message's write/read counters into m,
// alongside the Writes/Reads fields the consistency tests use.
func (s *StateMessage) Observe(set *metrics.Set) { s.met = set }

// NewStateMessage creates a state message with the given version-buffer
// depth and payload size in bytes (minimum 8: one machine word).
func NewStateMessage(id int, name string, depth, size int) *StateMessage {
	if depth < 2 {
		depth = 2
	}
	if size < 8 {
		size = 8
	}
	s := &StateMessage{
		ID:        id,
		Name:      name,
		size:      size,
		slots:     make([][]byte, depth),
		seqs:      make([]uint64, depth),
		published: ^uint64(0),
	}
	for i := range s.slots {
		s.slots[i] = make([]byte, size)
	}
	return s
}

// MinDepth returns the version-buffer depth that guarantees consistent
// reads when at most maxWritesDuringRead writer activations can preempt
// a single read.
func MinDepth(maxWritesDuringRead int) int {
	if maxWritesDuringRead < 0 {
		maxWritesDuringRead = 0
	}
	return maxWritesDuringRead + 2
}

// Depth reports the version-buffer depth.
func (s *StateMessage) Depth() int { return len(s.slots) }

// Size reports the payload size in bytes.
func (s *StateMessage) Size() int { return s.size }

// Writes reports the number of completed writes.
func (s *StateMessage) Writes() uint64 { return s.writes }

// Reads reports the number of completed reads.
func (s *StateMessage) Reads() uint64 { return s.reads }

// Write publishes val as the next version. Wait-free: never blocks,
// never interacts with the scheduler. This is the atomic high-level
// form used by the kernel, where op segments are indivisible.
func (s *StateMessage) Write(val int64) {
	w := s.BeginWrite()
	binary.LittleEndian.PutUint64(w.buf[:8], uint64(val))
	w.Commit()
}

// Read returns the freshest published value (the leading word of the
// payload) and false if nothing has been published yet. Like Write it
// is the atomic form the kernel uses: no writer can run mid-copy, so
// the read is always consistent.
func (s *StateMessage) Read() (int64, bool) {
	v, ok := s.Peek()
	if ok {
		s.reads++
		s.met.Inc(metrics.StateReads)
	}
	return v, ok
}

// Peek is Read without counting the read, for observers outside the
// simulation whose look must not move the counters they report.
func (s *StateMessage) Peek() (int64, bool) {
	if s.published == ^uint64(0) {
		return 0, false
	}
	slot := s.slots[s.published%uint64(len(s.slots))]
	return int64(binary.LittleEndian.Uint64(slot[:8])), true
}

// --- step API for adversarial interleaving tests -------------------

// WriteHandle is an in-progress write: the slot is chosen and versioned
// but not yet published.
type WriteHandle struct {
	s    *StateMessage
	slot int
	seq  uint64
	buf  []byte
}

// BeginWrite selects the next slot. The slot being (re)written is the
// oldest version, never the published one (depth ≥ 2).
func (s *StateMessage) BeginWrite() *WriteHandle {
	seq := s.writes
	slot := int(seq % uint64(len(s.slots)))
	return &WriteHandle{s: s, slot: slot, seq: seq, buf: s.slots[slot]}
}

// SetWord writes the leading word of the payload.
func (w *WriteHandle) SetWord(val int64) {
	binary.LittleEndian.PutUint64(w.buf[:8], uint64(val))
}

// Commit publishes the version.
func (w *WriteHandle) Commit() {
	w.s.seqs[w.slot] = w.seq
	w.s.published = w.seq
	w.s.writes++
	w.s.met.Inc(metrics.StateWrites)
}

// ReadHandle is an in-progress read: the version index is snapshotted;
// the payload copy proceeds byte-by-byte under test control.
type ReadHandle struct {
	s    *StateMessage
	seq  uint64
	slot int
	copy []byte
	pos  int
}

// BeginRead snapshots the freshest published version. ok is false when
// nothing has been published.
func (s *StateMessage) BeginRead() (*ReadHandle, bool) {
	if s.published == ^uint64(0) {
		return nil, false
	}
	seq := s.published
	return &ReadHandle{
		s:    s,
		seq:  seq,
		slot: int(seq % uint64(len(s.slots))),
		copy: make([]byte, s.size),
	}, true
}

// Step copies one byte of the payload; it reports false when the copy
// is complete.
func (r *ReadHandle) Step() bool {
	if r.pos >= len(r.copy) {
		return false
	}
	r.copy[r.pos] = r.s.slots[r.slot][r.pos]
	r.pos++
	return r.pos < len(r.copy)
}

// Finish completes any remaining copy steps and returns the payload and
// whether the read was consistent (the slot still holds the snapshotted
// version — torn reads report false; they occur only when the buffer
// depth bound of MinDepth is violated).
func (r *ReadHandle) Finish() ([]byte, bool) {
	for r.Step() {
	}
	r.s.reads++
	r.s.met.Inc(metrics.StateReads)
	return r.copy, r.s.seqs[r.slot] == r.seq
}

func (s *StateMessage) String() string {
	return fmt.Sprintf("statemsg %q (depth=%d size=%dB writes=%d)", s.Name, len(s.slots), s.size, s.writes)
}
