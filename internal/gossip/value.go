// Package gossip defines the shared substrate for all gossip-based
// distributed reduction protocols in this repository: the (value, weight)
// algebra exchanged between nodes, the wire message format, and the
// Protocol interface implemented by push-sum, push-flow, push-cancel-flow
// and flow-updating.
//
// Values follow the push-sum convention of Kempe, Dobra and Gehrke
// (FOCS 2003): every node holds a data vector X and a scalar weight W, and
// the global aggregate estimated at each node is the component-wise ratio
//
//	(Σᵢ Xᵢ) / (Σᵢ Wᵢ).
//
// Summation is obtained by setting W=1 on exactly one node and W=0
// elsewhere; averaging by setting W=1 everywhere. Arbitrary weighted
// means are possible with other weight choices.
package gossip

import (
	"fmt"
	"math"
)

// Value is the quantity exchanged by all reduction protocols: a data
// vector X together with a scalar weight W. Flows, masses and messages
// are all Values. The zero Value of a given width is the additive
// identity.
type Value struct {
	X []float64
	W float64
}

// NewValue returns a zero Value with the given number of data components.
func NewValue(width int) Value {
	return Value{X: make([]float64, width)}
}

// Scalar returns a Value holding a single data component x with weight w.
func Scalar(x, w float64) Value {
	return Value{X: []float64{x}, W: w}
}

// Vector returns a Value holding a copy of xs with weight w.
func Vector(xs []float64, w float64) Value {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	return Value{X: cp, W: w}
}

// Width reports the number of data components.
func (v Value) Width() int { return len(v.X) }

// Clone returns a deep copy of v.
func (v Value) Clone() Value {
	cp := Value{X: make([]float64, len(v.X)), W: v.W}
	copy(cp.X, v.X)
	return cp
}

// IsZero reports whether every component (including the weight) is
// exactly zero. Negative zero counts as zero.
func (v Value) IsZero() bool {
	if v.W != 0 {
		return false
	}
	for _, x := range v.X {
		if x != 0 {
			return false
		}
	}
	return true
}

// Equal reports exact (bit-for-bit up to -0 == 0) equality of v and u.
// Values of different widths are never equal.
func (v Value) Equal(u Value) bool {
	if v.W != u.W || len(v.X) != len(u.X) {
		return false
	}
	for i, x := range v.X {
		if x != u.X[i] {
			return false
		}
	}
	return true
}

// AddInPlace sets v ← v + u. The widths must match.
func (v *Value) AddInPlace(u Value) {
	checkWidth(len(v.X), len(u.X))
	for i, x := range u.X {
		v.X[i] += x
	}
	v.W += u.W
}

// SubInPlace sets v ← v − u. The widths must match.
func (v *Value) SubInPlace(u Value) {
	checkWidth(len(v.X), len(u.X))
	for i, x := range u.X {
		v.X[i] -= x
	}
	v.W -= u.W
}

// Neg returns −v as a new Value.
func (v Value) Neg() Value {
	out := Value{X: make([]float64, len(v.X)), W: -v.W}
	for i, x := range v.X {
		out.X[i] = -x
	}
	return out
}

// NegInPlace sets v ← −v.
func (v *Value) NegInPlace() {
	for i := range v.X {
		v.X[i] = -v.X[i]
	}
	v.W = -v.W
}

// Half returns v/2 as a new Value. Division by two is exact in binary
// floating point (absent underflow), which is what makes the dyadic
// equivalence property between PF and PCF testable bit-for-bit.
func (v Value) Half() Value {
	out := Value{X: make([]float64, len(v.X)), W: v.W / 2}
	for i, x := range v.X {
		out.X[i] = x / 2
	}
	return out
}

// Sub returns v − u as a new Value.
func (v Value) Sub(u Value) Value {
	checkWidth(len(v.X), len(u.X))
	out := Value{X: make([]float64, len(v.X)), W: v.W - u.W}
	for i, x := range v.X {
		out.X[i] = x - u.X[i]
	}
	return out
}

// Add returns v + u as a new Value.
func (v Value) Add(u Value) Value {
	checkWidth(len(v.X), len(u.X))
	out := Value{X: make([]float64, len(v.X)), W: v.W + u.W}
	for i, x := range v.X {
		out.X[i] = x + u.X[i]
	}
	return out
}

// HalfInPlace sets v ← v/2. Like Half, the division is exact in binary
// floating point (absent underflow).
func (v *Value) HalfInPlace() {
	for i := range v.X {
		v.X[i] /= 2
	}
	v.W /= 2
}

// Zero sets every component of v (including the weight) to zero,
// preserving the width.
func (v *Value) Zero() {
	for i := range v.X {
		v.X[i] = 0
	}
	v.W = 0
}

// Set copies u into v, reusing v's backing slice when the widths match.
func (v *Value) Set(u Value) {
	if len(v.X) != len(u.X) {
		v.X = make([]float64, len(u.X))
	}
	copy(v.X, u.X)
	v.W = u.W
}

// CopyFrom copies u into v like Set, but adapts to width changes by
// reslicing v's backing array whenever its capacity suffices — only
// growing allocates. Engine message pools use it so that copying a
// zero-width flow does not discard the pooled full-width backing array
// the way Set's exact-length reallocation would.
func (v *Value) CopyFrom(u Value) {
	if cap(v.X) >= len(u.X) {
		v.X = v.X[:len(u.X)]
	} else {
		v.X = make([]float64, len(u.X))
	}
	copy(v.X, u.X)
	v.W = u.W
}

// Estimate returns the component-wise ratio X/W, the node-local estimate
// of the global aggregate. If W is exactly zero the result components are
// NaN (the node has not yet accumulated any weight mass); callers that
// need a guarded version should use EstimateOr.
func (v Value) Estimate() []float64 {
	return v.EstimateInto(nil)
}

// EstimateInto writes the component-wise ratio X/W into dst, reusing its
// backing array when the capacity suffices, and returns the (possibly
// grown) slice — the allocation-free form of Estimate for per-round
// error scans.
func (v Value) EstimateInto(dst []float64) []float64 {
	if cap(dst) >= len(v.X) {
		dst = dst[:len(v.X)]
	} else {
		dst = make([]float64, len(v.X))
	}
	for i, x := range v.X {
		dst[i] = x / v.W
	}
	return dst
}

// EstimateOr is like Estimate but substitutes fallback for components
// whose ratio is not finite (W == 0).
func (v Value) EstimateOr(fallback float64) []float64 {
	out := v.Estimate()
	for i, x := range out {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			out[i] = fallback
		}
	}
	return out
}

// Finite reports whether every component of v is a finite float64.
// Fault injectors can produce NaN/Inf via bit flips; protocols use this
// for optional sanity screening.
func (v Value) Finite() bool {
	if math.IsNaN(v.W) || math.IsInf(v.W, 0) {
		return false
	}
	for _, x := range v.X {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute value over all components,
// including the weight.
func (v Value) MaxAbs() float64 {
	m := math.Abs(v.W)
	for _, x := range v.X {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// String renders a compact human-readable representation for debugging.
func (v Value) String() string {
	return fmt.Sprintf("Value{X:%v W:%g}", v.X, v.W)
}

func checkWidth(a, b int) {
	if a != b {
		panic(fmt.Sprintf("gossip: value width mismatch: %d vs %d", a, b))
	}
}
