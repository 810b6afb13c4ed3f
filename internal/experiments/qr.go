package experiments

import (
	"fmt"

	"pcfreduce/internal/dmgs"
	"pcfreduce/internal/linalg"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

// QRConfig parameterizes the Fig. 8 experiment: dmGS factorization
// errors on failure-free hypercubes for growing node counts.
type QRConfig struct {
	// Algorithm is the reduction used by dmGS (PF or PCF in the paper).
	Algorithm Algorithm
	// Cols is the number of matrix columns m (paper: 16; V ∈ R^{n×16},
	// n = N).
	Cols int
	// Runs is the number of random matrices per size, averaged (paper:
	// 50).
	Runs int
	// Eps is the per-reduction target accuracy (paper: 10⁻¹⁵).
	Eps float64
	// MaxRounds caps each reduction.
	MaxRounds int
	// Stall terminates reductions whose error stopped improving (see
	// dmgs.Config.StallRounds).
	Stall int
	// Seed drives matrices and schedules.
	Seed int64
}

// DefaultQRConfig returns the paper's Fig. 8 setup, scaled by runs
// (paper: 50).
func DefaultQRConfig(algo Algorithm, runs int) QRConfig {
	return QRConfig{
		Algorithm: algo,
		Cols:      16,
		Runs:      runs,
		Eps:       1e-15,
		MaxRounds: 4000,
		Stall:     60,
		Seed:      1,
	}
}

// QRPoint is one point of the Fig. 8 series.
type QRPoint struct {
	Nodes int
	// FactErrMean is the mean over runs of ‖V − QR‖∞/‖V‖∞ — the
	// quantity plotted in Fig. 8.
	FactErrMean float64
	// FactErrMax is the worst run.
	FactErrMax float64
	// OrthErrMean is the mean orthogonality error ‖QᵀQ − I‖∞ (Sec. IV's
	// closing remark; EXP-F).
	OrthErrMean float64
	// RDisagreementMean is the mean max disagreement between per-node R
	// copies.
	RDisagreementMean float64
	// MeanRoundsPerReduction is the average gossip rounds one reduction
	// took.
	MeanRoundsPerReduction float64
	// ConvergedFrac is the fraction of reductions that met Eps before
	// the iteration cap.
	ConvergedFrac float64
}

// QRSingle measures one node count, hypercube(dim), of the Fig. 8 sweep
// (paper: dim 5..10, i.e. 32..1024 nodes).
func QRSingle(cfg QRConfig, dim int) (QRPoint, error) {
	g := topology.Hypercube(dim)
	n := g.N()
	if cfg.Runs <= 0 || cfg.Cols <= 0 {
		return QRPoint{}, fmt.Errorf("experiments: QR config needs positive Runs and Cols")
	}
	var factErrs, orthErrs, disagreements, rounds, converged []float64
	for run := 0; run < cfg.Runs; run++ {
		seed := cfg.Seed + int64(1000*dim+run)
		v := linalg.Random(n, cfg.Cols, seed)
		res, err := dmgs.Factorize(v, dmgs.Config{
			Topology:    g,
			NewProtocol: cfg.Algorithm.New,
			Eps:         cfg.Eps,
			MaxRounds:   cfg.MaxRounds,
			StallRounds: cfg.Stall,
			Seed:        seed + 7,
		})
		if err != nil {
			return QRPoint{}, fmt.Errorf("experiments: dmGS(%s) n=%d run=%d: %w", cfg.Algorithm.Name, n, run, err)
		}
		factErrs = append(factErrs, linalg.FactorizationError(v, res.Q, res.R))
		orthErrs = append(orthErrs, linalg.OrthogonalityError(res.Q))
		disagreements = append(disagreements, res.RDisagreement)
		rounds = append(rounds, float64(res.TotalRounds)/float64(res.Reductions))
		converged = append(converged, float64(res.ConvergedReductions)/float64(res.Reductions))
	}
	return QRPoint{
		Nodes:                  n,
		FactErrMean:            stats.Mean(factErrs),
		FactErrMax:             stats.Max(factErrs),
		OrthErrMean:            stats.Mean(orthErrs),
		RDisagreementMean:      stats.Mean(disagreements),
		MeanRoundsPerReduction: stats.Mean(rounds),
		ConvergedFrac:          stats.Mean(converged),
	}, nil
}
