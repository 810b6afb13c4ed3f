package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSum2Compensation(t *testing.T) {
	var s Sum2
	for _, x := range []float64{1, 1e100, 1, -1e100} {
		s.Add(x)
	}
	if got := s.Value(); got != 2 {
		t.Fatalf("compensated sum = %g, want 2", got)
	}
	s.Reset()
	if s.Value() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestSum2ManyTerms(t *testing.T) {
	var s Sum2
	n := 1 << 22
	for i := 0; i < n; i++ {
		s.Add(0.1)
	}
	want := float64(n) * 0.1
	if math.Abs(s.Value()-want)/want > 1e-15 {
		t.Fatalf("sum of %d × 0.1 = %.17g", n, s.Value())
	}
}

func TestSumAndMean(t *testing.T) {
	if Sum([]float64{1, 2, 3}) != 6 {
		t.Fatal("Sum")
	}
	if Mean([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("Mean")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean of empty must be NaN")
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(11, 10) != 0.1 {
		t.Fatalf("RelErr = %g", RelErr(11, 10))
	}
	if RelErr(0.5, 0) != 0.5 {
		t.Fatal("RelErr with zero target must fall back to absolute")
	}
	if RelErr(-11, -10) != 0.1 {
		t.Fatal("RelErr must use magnitudes")
	}
	errs := RelErrs([]float64{9, 11}, 10)
	if errs[0] != 0.1 || errs[1] != 0.1 {
		t.Fatalf("RelErrs = %v", errs)
	}
}

func TestMaxMin(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Max(xs) != 7 || Min(xs) != -1 {
		t.Fatal("Max/Min")
	}
	if !math.IsNaN(Max(nil)) || !math.IsNaN(Min(nil)) {
		t.Fatal("empty Max/Min must be NaN")
	}
	withNaN := []float64{1, math.NaN(), 2}
	if !math.IsNaN(Max(withNaN)) || !math.IsNaN(Min(withNaN)) {
		t.Fatal("NaN must propagate")
	}
	leadNaN := []float64{math.NaN(), 5}
	if !math.IsNaN(Max(leadNaN)) || !math.IsNaN(Min(leadNaN)) {
		t.Fatal("leading NaN must propagate")
	}
}

func TestMedian(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if Median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("even median")
	}
	if Median([]float64{5}) != 5 {
		t.Fatal("single median")
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("empty median")
	}
	// Median must not mutate the input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Fatal("Median mutated input")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{0, 10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 0}, {1, 40}, {0.5, 20}, {0.25, 10}, {0.125, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Fatalf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) || !math.IsNaN(Quantile(xs, math.NaN())) {
		t.Fatal("out-of-range q must be NaN")
	}
}

// QuantileSorted over a pre-sorted copy must agree bitwise with Quantile
// over the unsorted input, for all q — the engine's per-round median
// recording relies on this equivalence.
func TestQuantileSortedMatchesQuantile(t *testing.T) {
	xs := []float64{40, 0, 30, 10, 20}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, q := range []float64{0, 0.125, 0.25, 0.5, 0.9, 1} {
		a, b := Quantile(xs, q), QuantileSorted(sorted, q)
		if a != b {
			t.Fatalf("q=%g: Quantile=%g QuantileSorted=%g", q, a, b)
		}
	}
	if !math.IsNaN(QuantileSorted(sorted, -0.1)) || !math.IsNaN(QuantileSorted(nil, 0.5)) {
		t.Fatal("out-of-range q and empty input must be NaN")
	}
	if QuantileSorted([]float64{7}, 0.3) != 7 {
		t.Fatal("single element must be its own quantile")
	}
}

// TestSelectQuantilesMatchesSorted: selection must return exactly what
// sorting and interpolating does, on random inputs and on inputs made
// mostly of ties, for ascending and unordered quantile lists, and must
// reorder without losing or inventing elements.
func TestSelectQuantilesMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		distinct := 1 + rng.Intn(n)
		for i := range xs {
			xs[i] = float64(rng.Intn(distinct)) * rng.ExpFloat64()
			if trial%3 == 0 {
				xs[i] = float64(rng.Intn(distinct))
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, qs := range [][]float64{
			{0, 0.01, 0.5, 0.9, 0.99, 1},
			{0.99, 0.5, 0.9, 0.5, 0},
		} {
			work := append([]float64(nil), xs...)
			out := make([]float64, len(qs))
			SelectQuantiles(work, qs, out)
			for i, q := range qs {
				if want := QuantileSorted(sorted, q); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("n=%d q=%g: SelectQuantiles %v, QuantileSorted %v", n, q, out[i], want)
				}
			}
			sort.Float64s(work)
			for i := range work {
				if work[i] != sorted[i] {
					t.Fatalf("n=%d qs=%v: selection changed the multiset", n, qs)
				}
			}
		}
	}
	out := make([]float64, 2)
	SelectQuantiles(nil, []float64{0.5, 0.9}, out)
	nan := math.IsNaN(out[0]) && math.IsNaN(out[1])
	SelectQuantiles([]float64{1}, []float64{-0.5, 1.5}, out)
	if !nan || !math.IsNaN(out[0]) || !math.IsNaN(out[1]) {
		t.Fatal("SelectQuantiles: want NaN for empty input or q outside [0, 1]")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Record(1, []float64{0.5, 0.1})
	s.Record(2, []float64{0.05, 0.01})
	s.Record(3, []float64{0.2, 0.02}) // error bumps back up
	if s.FinalMax() != 0.2 {
		t.Fatalf("FinalMax = %g", s.FinalMax())
	}
	if s.MaxAfter(2) != 0.2 {
		t.Fatalf("MaxAfter(2) = %g", s.MaxAfter(2))
	}
	if !math.IsNaN(s.MaxAfter(10)) {
		t.Fatal("MaxAfter beyond series must be NaN")
	}
	if s.FirstBelow(0.06) != 2 {
		t.Fatalf("FirstBelow = %d", s.FirstBelow(0.06))
	}
	if s.FirstBelow(1e-9) != -1 {
		t.Fatal("unreached FirstBelow must be -1")
	}
	var empty Series
	if !math.IsNaN(empty.FinalMax()) {
		t.Fatal("empty FinalMax must be NaN")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Fatalf("GeoMean = %g", got)
	}
	if GeoMean([]float64{5, 0}) != 0 {
		t.Fatal("zero element must give 0")
	}
	if !math.IsNaN(GeoMean([]float64{-1, 2})) {
		t.Fatal("negative element must give NaN")
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Fatal("empty GeoMean must be NaN")
	}
}

// Property: Quantile lies between Min and Max and is monotone in q.
func TestQuickQuantileBounds(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if math.IsNaN(q1) || math.IsNaN(q2) {
			return true
		}
		lo, hi := math.Min(q1, q2), math.Max(q1, q2)
		a, b := Quantile(xs, lo), Quantile(xs, hi)
		return a >= Min(xs) && b <= Max(xs) && a <= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Median equals the midpoint of the sorted slice.
func TestQuickMedianMatchesSort(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		got := Median(xs)
		cp := append([]float64(nil), xs...)
		sort.Float64s(cp)
		var want float64
		if len(cp)%2 == 1 {
			want = cp[len(cp)/2]
		} else {
			want = (cp[len(cp)/2-1] + cp[len(cp)/2]) / 2
		}
		return got == want || math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: compensated Sum is at least as accurate as… itself run on a
// permutation (order independence within tight tolerance).
func TestQuickSumPermutationStable(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		fwd := Sum(xs)
		rev := make([]float64, len(xs))
		for i, x := range xs {
			rev[len(xs)-1-i] = x
		}
		bwd := Sum(rev)
		if fwd == bwd {
			return true
		}
		scale := math.Max(math.Abs(fwd), math.Abs(bwd))
		return math.Abs(fwd-bwd) <= 1e-12*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The per-iteration error series must serialize even when the relative
// error is transiently infinite (a node's estimate is x/0 until the
// first mass arrives): non-finite values become null, null reads back
// as NaN, and finite values render exactly as plain float64 fields
// would — so golden-file JSON comparisons are unaffected.
func TestErrorPointJSONNonFinite(t *testing.T) {
	s := Series{
		{Iteration: 0, Max: math.Inf(1), Median: math.NaN()},
		{Iteration: 5, Max: 1e-5, Median: 0.25},
	}
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Series
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !math.IsNaN(back[0].Max) || !math.IsNaN(back[0].Median) {
		t.Fatalf("null did not read back as NaN: %+v", back[0])
	}
	if back[1] != s[1] {
		t.Fatalf("finite point changed across round-trip: %+v vs %+v", back[1], s[1])
	}

	// Finite values must render byte-identically to the default encoding.
	type plain struct {
		Iteration int
		Max       float64
		Median    float64
	}
	for _, v := range []float64{0, 1e-5, 1e21, 0.1, 6.548e-06, 123456.789} {
		a, _ := json.Marshal(ErrorPoint{Iteration: 1, Max: v, Median: v / 3})
		b, _ := json.Marshal(plain{Iteration: 1, Max: v, Median: v / 3})
		if string(a) != string(b) {
			t.Fatalf("representation drift for %g: %s vs %s", v, a, b)
		}
	}
}
