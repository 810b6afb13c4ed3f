package gossip

// Flat-state snapshot streams: the substrate of the checkpoint/replay
// layer (internal/checkpoint). A snapshot is four typed append-only
// streams — float64s, uint64s, int32s and bytes — written in a fixed
// order by each state machine and read back in the same order. The
// struct-of-arrays protocol state serializes into these streams with
// plain copies (no reflection, no per-field encoding), float64 payloads
// keep their exact bit patterns, and the checkpoint codec only ever
// sees flat slices, which keeps its binary format trivial to version
// and checksum.

import "errors"

// State holds the four flat snapshot streams. The zero value is an
// empty snapshot; StateWriter appends to it, StateReader consumes it.
type State struct {
	F64 []float64
	U64 []uint64
	I32 []int32
	B   []byte
}

// StateWriter appends snapshot data to a State. The zero value is
// ready to use.
type StateWriter struct {
	State
}

// PutF64 appends one float64.
func (w *StateWriter) PutF64(x float64) { w.F64 = append(w.F64, x) }

// PutF64s appends a float64 slice verbatim (no length prefix — the
// reader must know the count from structural context).
func (w *StateWriter) PutF64s(xs []float64) { w.F64 = append(w.F64, xs...) }

// PutU64 appends one uint64.
func (w *StateWriter) PutU64(x uint64) { w.U64 = append(w.U64, x) }

// PutI32 appends one int32.
func (w *StateWriter) PutI32(x int32) { w.I32 = append(w.I32, x) }

// PutI32s appends a length-prefixed int32 slice (the length goes into
// the U64 stream), for variable-length lists such as live-neighbor
// sets whose order must round-trip verbatim.
func (w *StateWriter) PutI32s(xs []int32) {
	w.PutU64(uint64(len(xs)))
	w.I32 = append(w.I32, xs...)
}

// PutByte appends one byte.
func (w *StateWriter) PutByte(b byte) { w.B = append(w.B, b) }

// PutBool appends a bool as one byte (1/0).
func (w *StateWriter) PutBool(b bool) {
	if b {
		w.B = append(w.B, 1)
	} else {
		w.B = append(w.B, 0)
	}
}

// PutValue appends a Value: its X components followed by its weight.
// The component count is structural (the reader supplies a Value of
// the same width).
func (w *StateWriter) PutValue(v Value) {
	w.F64 = append(w.F64, v.X...)
	w.F64 = append(w.F64, v.W)
}

// ErrStateUnderflow is reported by StateReader when a read runs past
// the end of a stream — a truncated or structurally mismatched
// snapshot.
var ErrStateUnderflow = errors.New("gossip: snapshot state underflow")

// ErrStateInvalid is reported by StateReader when a loader reads a
// well-formed stream holding state no run can produce — a live list
// naming a non-neighbor, an active slot that addresses another edge —
// as opposed to a stream that ends early (ErrStateUnderflow).
var ErrStateInvalid = errors.New("gossip: invalid protocol state")

// StateReader consumes a State in the order it was written. Reads past
// the end of a stream return zero values and latch a sticky error;
// callers perform their whole read sequence and check Err once at the
// end, mirroring bufio.Scanner-style error handling. The first error
// latched is the one Err reports.
type StateReader struct {
	s          State
	f, u, i, b int
	err        error
}

// NewStateReader returns a reader over s (which is not copied; the
// caller must not mutate it while reading).
func NewStateReader(s State) *StateReader { return &StateReader{s: s} }

func (r *StateReader) fail() { r.latch(ErrStateUnderflow) }

func (r *StateReader) latch(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Fail latches the underflow error from outside the package, for
// restore code that detects a structural mismatch (e.g. a payload width
// that disagrees with the engine's) the stream reads themselves cannot
// catch.
func (r *StateReader) Fail() { r.fail() }

// Invalid latches ErrStateInvalid, for loaders that reject state no run
// can produce.
func (r *StateReader) Invalid() { r.latch(ErrStateInvalid) }

// Err returns the sticky error (nil if every read so far was in
// bounds).
func (r *StateReader) Err() error { return r.err }

// Exhausted reports whether every stream has been fully consumed — a
// restore that ends with leftover data read a snapshot written by a
// different engine configuration.
func (r *StateReader) Exhausted() bool {
	return r.f == len(r.s.F64) && r.u == len(r.s.U64) && r.i == len(r.s.I32) && r.b == len(r.s.B)
}

// F64 reads one float64.
func (r *StateReader) F64() float64 {
	if r.f >= len(r.s.F64) {
		r.fail()
		return 0
	}
	x := r.s.F64[r.f]
	r.f++
	return x
}

// F64s returns a view of the next n float64s (valid until the State is
// mutated); nil on underflow.
func (r *StateReader) F64s(n int) []float64 {
	if n < 0 || len(r.s.F64)-r.f < n {
		r.fail()
		return nil
	}
	v := r.s.F64[r.f : r.f+n]
	r.f += n
	return v
}

// ReadF64s copies the next len(dst) float64s into dst, leaving dst
// untouched on underflow.
func (r *StateReader) ReadF64s(dst []float64) {
	if xs := r.F64s(len(dst)); xs != nil {
		copy(dst, xs)
	}
}

// U64 reads one uint64.
func (r *StateReader) U64() uint64 {
	if r.u >= len(r.s.U64) {
		r.fail()
		return 0
	}
	x := r.s.U64[r.u]
	r.u++
	return x
}

// I32 reads one int32.
func (r *StateReader) I32() int32 {
	if r.i >= len(r.s.I32) {
		r.fail()
		return 0
	}
	x := r.s.I32[r.i]
	r.i++
	return x
}

// I32s reads a length-prefixed int32 slice written by PutI32s and
// returns a view of it; nil on underflow.
func (r *StateReader) I32s() []int32 {
	n := r.U64()
	if r.err != nil || n > uint64(len(r.s.I32)-r.i) {
		r.fail()
		return nil
	}
	v := r.s.I32[r.i : r.i+int(n)]
	r.i += int(n)
	return v
}

// Byte reads one byte.
func (r *StateReader) Byte() byte {
	if r.b >= len(r.s.B) {
		r.fail()
		return 0
	}
	x := r.s.B[r.b]
	r.b++
	return x
}

// Bool reads one bool.
func (r *StateReader) Bool() bool { return r.Byte() != 0 }

// Value reads a Value written by PutValue into v, which must already
// have the width it was written with (len(v.X) components are read).
func (r *StateReader) Value(v *Value) {
	xs := r.F64s(len(v.X))
	if xs == nil {
		return
	}
	copy(v.X, xs)
	v.W = r.F64()
}
