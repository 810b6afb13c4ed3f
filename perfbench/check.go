package main

import (
	"fmt"
	"math"

	"pcfreduce/internal/linalg"
)

// The checks below use only the inputs the benchmark generated and its
// own arithmetic: the program's oracle and its own error reports are not
// trusted.

// average returns the mean of xs with Neumaier compensated summation.
func average(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			comp += (sum - t) + x
		} else {
			comp += (x - t) + sum
		}
		sum = t
	}
	return (sum + comp) / float64(len(xs))
}

// oracleSlack is added to eps in checkEstimates. The run stops on the
// engine's own oracle, which may round the average a few ulps away from
// the benchmark's; without the slack a max error that lands within those
// ulps of eps would fail the check although both agree on it.
const oracleSlack = 1e-15

// checkEstimates verifies that every live node's scalar estimate lies
// within eps relative of target. est[i] is nil for a crashed node.
func checkEstimates(est [][]float64, target, eps float64) error {
	live := 0
	for i, e := range est {
		if e == nil {
			continue
		}
		live++
		if rel := math.Abs(e[0]-target) / math.Abs(target); !(rel <= eps+oracleSlack) {
			return fmt.Errorf("node %d estimate %.17g is %.3g relative from the average %.17g (eps %g)", i, e[0], rel, target, eps)
		}
	}
	if live == 0 {
		return fmt.Errorf("no live node")
	}
	return nil
}

// qrTol bounds both QR residuals. At ε = 1e-15 every reduction ends
// through the stall rule, and the level it stalls at has a heavy tail:
// over 240 seeded 256×16 matrices (seeds 100–159) the factorization
// error has median 9.2e-14, 99th percentile 6.0e-12 and maximum 2.0e-11,
// and the orthogonality error maximum 3.3e-12. qrTol sits 50× above the
// largest; reductions stopped at a loose ε leave errors above it (see
// TestPerturbedOracleFailsQRCheck), and wrong sums leave errors of order 1.
const qrTol = 1e-9

// checkQR verifies ‖V−QR‖∞/‖V‖∞ ≤ qrTol and ‖QᵀQ−I‖∞ ≤ qrTol.
func checkQR(v, q, r *linalg.Matrix) error {
	if q == nil || r == nil || q.Rows != v.Rows || q.Cols != v.Cols || r.Rows != v.Cols || r.Cols != v.Cols {
		return fmt.Errorf("factor shapes do not match a %dx%d input", v.Rows, v.Cols)
	}
	n, m := v.Rows, v.Cols
	var resid, norm float64
	for i := 0; i < n; i++ {
		var rowResid, rowNorm float64
		for j := 0; j < m; j++ {
			var qr float64
			for k := 0; k <= j; k++ {
				qr += q.At(i, k) * r.At(k, j)
			}
			rowResid += math.Abs(v.At(i, j) - qr)
			rowNorm += math.Abs(v.At(i, j))
		}
		resid = math.Max(resid, rowResid)
		norm = math.Max(norm, rowNorm)
	}
	if f := resid / norm; !(f <= qrTol) {
		return fmt.Errorf("factorization error ‖V−QR‖∞/‖V‖∞ = %.3g > %g", f, qrTol)
	}
	var orth float64
	for a := 0; a < m; a++ {
		var row float64
		for b := 0; b < m; b++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += q.At(i, a) * q.At(i, b)
			}
			if a == b {
				dot--
			}
			row += math.Abs(dot)
		}
		orth = math.Max(orth, row)
	}
	if !(orth <= qrTol) {
		return fmt.Errorf("orthogonality error ‖QᵀQ−I‖∞ = %.3g > %g", orth, qrTol)
	}
	return nil
}
