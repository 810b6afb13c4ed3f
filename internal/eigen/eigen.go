// Package eigen implements a fully distributed symmetric eigensolver by
// orthogonal iteration, the higher-level application the paper points to
// beyond QR (its reference [9]: Straková & Gansterer, "A Distributed
// Eigensolver for Loosely Coupled Networks", PDP 2013). Like dmGS, it
// uses gossip reductions as a black box for every global sum, so the
// fault tolerance and accuracy of the chosen reduction algorithm carry
// over to the eigensolver.
//
// # Data distribution and algorithm
//
// The symmetric input A ∈ R^{n×n} is distributed by columns: node k owns
// column a_k (equivalently row k, by symmetry) and row k of the iterate
// V ∈ R^{n×m}. One orthogonal-iteration step computes
//
//	W = A·V = Σ_k a_k · v_kᵀ,
//
// a sum of n rank-one matrices with one addend per node — exactly one
// vector-valued gossip SUM of width n·m. Every node then holds the full
// W, keeps its row, and the columns are orthonormalized with the
// distributed Gram-Schmidt machinery (norms and inner products again by
// gossip reductions, here evaluated on the replicated W for efficiency).
// Rayleigh quotients diag(VᵀAV) estimate the eigenvalues; their
// stabilization across iterations is the convergence criterion.
//
// The subspace V converges to the span of the m dominant eigenvectors at
// rate |λ_{m+1}/λ_m| per iteration (standard orthogonal-iteration
// theory); eigenvalues are recovered in descending |λ| order.
package eigen

import (
	"fmt"
	"math"

	"pcfreduce/internal/gossip"
	"pcfreduce/internal/linalg"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

// Config parameterizes a distributed eigensolve.
type Config struct {
	// Topology is the gossip network; the matrix dimension must equal
	// its node count (one column per node).
	Topology *topology.Graph
	// NewProtocol constructs one reduction-protocol instance per node.
	NewProtocol func() gossip.Protocol
	// Eigenvectors is m, the number of dominant eigenpairs to compute.
	Eigenvectors int
	// Tol is the subspace-stabilization tolerance: iteration stops when
	// no entry of V moved more than Tol between iterations (columns
	// compared up to sign). Eigenvalues, which converge quadratically,
	// are then accurate to roughly Tol² (down to the reduction floor).
	Tol float64
	// MaxIterations caps the orthogonal iteration.
	MaxIterations int
	// Seed drives all schedules.
	Seed int64
}

// Every gossip reduction of the solver runs to reductionEps or stops
// after reductionMaxRounds rounds.
const (
	reductionEps       = 1e-13
	reductionMaxRounds = 3000
)

// DefaultConfig returns a ready configuration for the given topology,
// protocol and subspace size.
func DefaultConfig(g *topology.Graph, mk func() gossip.Protocol, m int) Config {
	return Config{
		Topology:      g,
		NewProtocol:   mk,
		Eigenvectors:  m,
		Tol:           1e-10,
		MaxIterations: 300,
		Seed:          1,
	}
}

// Result holds the computed dominant eigenpairs.
type Result struct {
	// Values are the m dominant eigenvalues in descending |λ| order.
	Values []float64
	// Vectors is the n×m matrix of corresponding eigenvectors
	// (columns), assembled from the node-local rows.
	Vectors *linalg.Matrix
	// Iterations is the number of orthogonal-iteration steps executed.
	Iterations int
	// Converged reports whether Tol was met before MaxIterations.
	Converged bool
	// Reductions and TotalRounds count the gossip work.
	Reductions  int
	TotalRounds int
}

// Solve runs the distributed orthogonal iteration on the symmetric
// matrix a.
func Solve(a *linalg.Matrix, cfg Config) (Result, error) {
	if cfg.Topology == nil {
		return Result{}, fmt.Errorf("eigen: nil topology")
	}
	n := cfg.Topology.N()
	if a.Rows != n || a.Cols != n {
		return Result{}, fmt.Errorf("eigen: matrix is %dx%d for %d nodes", a.Rows, a.Cols, n)
	}
	m := cfg.Eigenvectors
	if m < 1 || m > n {
		return Result{}, fmt.Errorf("eigen: need 1 ≤ m ≤ n, got m=%d", m)
	}
	if cfg.NewProtocol == nil {
		return Result{}, fmt.Errorf("eigen: nil protocol constructor")
	}
	if cfg.MaxIterations <= 0 {
		return Result{}, fmt.Errorf("eigen: non-positive MaxIterations")
	}
	// Symmetry check (cheap, exact): the algorithm's column/row duality
	// requires it.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if a.At(i, j) != a.At(j, i) {
				return Result{}, fmt.Errorf("eigen: matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}

	protos := make([]gossip.Protocol, n)
	for i := range protos {
		protos[i] = cfg.NewProtocol()
	}
	res := Result{}
	// reduce performs one vector-valued gossip SUM; every node gets its
	// own estimate, and node 0's estimate is used for the replicated
	// quantities (all copies agree to reductionEps). One engine serves
	// every iteration: the width n·m never changes, so ResetWithInputs
	// rewinds it with the next seed and partials while keeping the
	// message pools and width-n·m scratch buffers allocated — the
	// dominant allocation of the solver.
	var eng *sim.Engine
	defer func() {
		if eng != nil {
			eng.Close()
		}
	}()
	reduce := func(partials []gossip.Value) [][]float64 {
		seed := cfg.Seed + int64(res.Reductions)
		if eng == nil {
			eng = sim.New(cfg.Topology, protos, partials, seed, sim.WithVectorScaleErrors())
		} else {
			eng.ResetWithInputs(seed, partials)
		}
		r := eng.Run(sim.RunConfig{MaxRounds: reductionMaxRounds, Eps: reductionEps, StallRounds: 60})
		res.Reductions++
		res.TotalRounds += r.Rounds
		return eng.Estimates()
	}

	// Deterministic full-rank start: V = the first m columns of the
	// identity plus a small spread so no eigenvector is orthogonal to
	// the start subspace in degenerate cases.
	v := linalg.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if i%m == j {
				v.Set(i, j, 1)
			}
			v.Set(i, j, v.At(i, j)+1e-3*float64((i+2*j)%7-3))
		}
	}
	orthonormalizeColumns(v)

	var prevV *linalg.Matrix
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		res.Iterations = iter + 1
		// W = A·V = Σ_k a_k v_kᵀ — one width-(n·m) SUM with node k
		// contributing its rank-one term.
		partials := make([]gossip.Value, n)
		for k := 0; k < n; k++ {
			xs := make([]float64, n*m)
			for i := 0; i < n; i++ {
				aik := a.At(i, k)
				if aik == 0 {
					continue
				}
				for j := 0; j < m; j++ {
					xs[i*m+j] = aik * v.At(k, j)
				}
			}
			partials[k] = gossip.Value{X: xs, W: gossip.Sum.InitialWeight(k)}
		}
		est := reduce(partials)
		w := &linalg.Matrix{Rows: n, Cols: m, Data: est[0]}

		// Orthonormalize the replicated W (every node would perform the
		// identical computation on its own ≈identical copy; we compute
		// it once on node 0's copy — the dmgs package demonstrates the
		// fully per-node variant for QR).
		orthonormalizeColumns(w)
		prevV, v = v, w

		// Subspace stabilization: compare the new V with the previous
		// one column-wise up to sign (orthogonal iteration determines
		// eigenvectors only up to sign per column).
		if prevV != nil && subspaceDelta(v, prevV) <= cfg.Tol {
			res.Converged = true
			break
		}
	}
	res.Vectors = v
	res.Values = rayleigh(a, v)
	return res, nil
}

// subspaceDelta returns the largest entry-wise change between two
// column-orthonormal iterates, aligning each column's sign first.
func subspaceDelta(a, b *linalg.Matrix) float64 {
	worst := 0.0
	for j := 0; j < a.Cols; j++ {
		sign := 1.0
		if linalg.Dot(a.Col(j), b.Col(j)) < 0 {
			sign = -1
		}
		for i := 0; i < a.Rows; i++ {
			if d := math.Abs(a.At(i, j) - sign*b.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// rayleigh returns diag(VᵀAV) for column-orthonormal V.
func rayleigh(a, v *linalg.Matrix) []float64 {
	av := a.Mul(v)
	out := make([]float64, v.Cols)
	for j := 0; j < v.Cols; j++ {
		var s stats.Sum2
		for i := 0; i < v.Rows; i++ {
			s.Add(v.At(i, j) * av.At(i, j))
		}
		out[j] = s.Value()
	}
	return out
}

// orthonormalizeColumns runs in-place modified Gram-Schmidt on the
// columns of m.
func orthonormalizeColumns(m *linalg.Matrix) {
	for k := 0; k < m.Cols; k++ {
		col := m.Col(k)
		norm := linalg.Norm2(col)
		for i := 0; i < m.Rows; i++ {
			m.Set(i, k, m.At(i, k)/norm)
		}
		colK := m.Col(k)
		for j := k + 1; j < m.Cols; j++ {
			d := linalg.Dot(colK, m.Col(j))
			for i := 0; i < m.Rows; i++ {
				m.Set(i, j, m.At(i, j)-d*colK[i])
			}
		}
	}
}

// ReferenceEigen computes the m dominant eigenpairs of the symmetric
// matrix a with (sequential) orthogonal iteration run to tight
// tolerance — the oracle for tests.
func ReferenceEigen(a *linalg.Matrix, m int, iters int) ([]float64, *linalg.Matrix) {
	n := a.Rows
	v := linalg.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if i%m == j {
				v.Set(i, j, 1)
			}
			v.Set(i, j, v.At(i, j)+1e-3*float64((i+2*j)%7-3))
		}
	}
	orthonormalizeColumns(v)
	for t := 0; t < iters; t++ {
		v = a.Mul(v)
		orthonormalizeColumns(v)
	}
	return rayleigh(a, v), v
}
