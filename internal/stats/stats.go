// Package stats provides the numerical measurement substrate used by the
// experiment harnesses: compensated summation, relative-error metrics,
// order statistics and per-iteration error series in the form reported by
// the paper (maximal and median local error over all nodes).
package stats

import (
	"encoding/json"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Sum2 is a Neumaier compensated accumulator. It sums float64 values with
// an error bound independent of the number of addends, which the oracle
// side of the experiments needs so that the measured "exact" aggregate is
// trustworthy at scales where naive summation loses digits.
type Sum2 struct {
	sum, comp float64
}

// Add accumulates x.
func (s *Sum2) Add(x float64) {
	t := s.sum + x
	if math.Abs(s.sum) >= math.Abs(x) {
		s.comp += (s.sum - t) + x
	} else {
		s.comp += (x - t) + s.sum
	}
	s.sum = t
}

// Value returns the compensated total.
func (s *Sum2) Value() float64 { return s.sum + s.comp }

// Reset clears the accumulator.
func (s *Sum2) Reset() { s.sum, s.comp = 0, 0 }

// Sum returns the compensated sum of xs.
func Sum(xs []float64) float64 {
	var s Sum2
	for _, x := range xs {
		s.Add(x)
	}
	return s.Value()
}

// Mean returns the compensated arithmetic mean of xs, or NaN when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// RelErr returns |got − want| / |want|; if want is zero it falls back to
// the absolute error |got|.
func RelErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// RelErrs maps RelErr over a slice of estimates against a single target.
func RelErrs(got []float64, want float64) []float64 {
	out := make([]float64, len(got))
	for i, g := range got {
		out[i] = RelErr(g, want)
	}
	return out
}

// Max returns the largest element of xs (NaN-propagating), or NaN when
// empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if math.IsNaN(x) {
			return math.NaN()
		}
		if x > m {
			m = x
		}
	}
	if math.IsNaN(xs[0]) {
		return math.NaN()
	}
	return m
}

// Min returns the smallest element of xs (NaN-propagating), or NaN when
// empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if math.IsNaN(x) {
			return math.NaN()
		}
		if x < m {
			m = x
		}
	}
	if math.IsNaN(xs[0]) {
		return math.NaN()
	}
	return m
}

// Median returns the median of xs without mutating it, or NaN when empty.
// For even lengths it returns the mean of the two central elements.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics, without mutating xs. It
// returns NaN for empty input or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return QuantileSorted(cp, q)
}

// QuantileSorted is Quantile over an already ascending-sorted slice. It
// performs no allocation, which makes it the right primitive for
// per-round recording on the simulator hot path (the caller keeps one
// scratch slice and re-sorts it in place each round).
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// SelectQuantiles sets out[i] to QuantileSorted of the ascending sort of
// xs at qs[i], computed by selection instead of sorting: it reorders xs
// in place, allocates nothing and runs in expected linear time. For
// NaN-free xs each result equals QuantileSorted's: the same two order
// statistics under the same interpolation. With qs ascending, each
// selection runs only over the part of xs above the previous one.
func SelectQuantiles(xs, qs, out []float64) {
	n := len(xs)
	base := 0 // xs[base:] holds the order statistics base… of xs
	for i, q := range qs {
		if n == 0 || q < 0 || q > 1 || math.IsNaN(q) {
			out[i] = math.NaN()
			continue
		}
		pos := q * float64(n-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo < base {
			base = 0
		}
		selectNth(xs[base:], lo-base)
		base = lo
		if lo == hi {
			out[i] = xs[lo]
			continue
		}
		// Everything past lo is ≥ xs[lo]; the next order statistic is
		// their minimum.
		next := xs[hi]
		for _, x := range xs[hi+1:] {
			next = min(next, x)
		}
		frac := pos - float64(lo)
		out[i] = xs[lo]*(1-frac) + next*frac
	}
}

// selectNth reorders NaN-free xs so that xs[k] holds the k-th smallest
// element, with nothing larger before it and nothing smaller after it:
// Hoare's quickselect with a median-of-three pivot. A range that has
// not shrunk to k after 2·log₂n partitions is sorted instead, bounding
// the worst case at O(n log n).
func selectNth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); hi > lo; budget-- {
		if budget == 0 {
			slices.Sort(xs[lo : hi+1])
			return
		}
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		p := max(min(a, b), min(max(a, b), c))
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] ≤ p ≤ xs[i..hi], and everything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// ErrorPoint is one iteration of a convergence trace: the maximal and
// median relative local error over all nodes, exactly the two series
// plotted in the paper's Figs. 4 and 7.
type ErrorPoint struct {
	Iteration int
	Max       float64
	Median    float64
}

// jsonFloat marshals like a plain float64 except that non-finite values
// become null instead of an encoding error, and null unmarshals back to
// NaN (the same convention as metrics.Float).
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

func (f *jsonFloat) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = jsonFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

// errorPointJSON is ErrorPoint's wire form. The relative error is
// legitimately +Inf while a node's aggregate weight is still zero (the
// estimate is x/0 until the first mass arrives), and encoding/json
// rejects non-finite values outright — so those serialize as null.
type errorPointJSON struct {
	Iteration int
	Max       jsonFloat
	Median    jsonFloat
}

// MarshalJSON writes finite fields exactly as the default encoding
// would, and non-finite ones as null.
func (p ErrorPoint) MarshalJSON() ([]byte, error) {
	return json.Marshal(errorPointJSON{p.Iteration, jsonFloat(p.Max), jsonFloat(p.Median)})
}

// UnmarshalJSON reads the wire form back; null becomes NaN.
func (p *ErrorPoint) UnmarshalJSON(data []byte) error {
	var w errorPointJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*p = ErrorPoint{Iteration: w.Iteration, Max: float64(w.Max), Median: float64(w.Median)}
	return nil
}

// Series is a per-iteration error trace.
type Series []ErrorPoint

// Record appends a point computed from per-node relative errors.
func (s *Series) Record(iteration int, errs []float64) {
	*s = append(*s, ErrorPoint{Iteration: iteration, Max: Max(errs), Median: Median(errs)})
}

// FinalMax returns the Max of the last recorded point, or NaN when empty.
func (s Series) FinalMax() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s[len(s)-1].Max
}

// MaxAfter returns the largest Max error at or after the given iteration,
// used to quantify post-failure fall-back.
func (s Series) MaxAfter(iteration int) float64 {
	worst := math.Inf(-1)
	found := false
	for _, p := range s {
		if p.Iteration >= iteration {
			found = true
			if p.Max > worst || math.IsNaN(p.Max) {
				worst = p.Max
			}
		}
	}
	if !found {
		return math.NaN()
	}
	return worst
}

// FirstBelow returns the first iteration whose Max error is ≤ eps, or -1
// if the series never reaches eps.
func (s Series) FirstBelow(eps float64) int {
	for _, p := range s {
		if p.Max <= eps {
			return p.Iteration
		}
	}
	return -1
}

// GeoMean returns the geometric mean of xs; zeros and negatives yield
// zero/NaN respectively, and the empty slice yields NaN.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum Sum2
	for _, x := range xs {
		if x < 0 {
			return math.NaN()
		}
		if x == 0 {
			return 0
		}
		logSum.Add(math.Log(x))
	}
	return math.Exp(logSum.Value() / float64(len(xs)))
}
