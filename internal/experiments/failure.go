package experiments

import (
	"math"

	"pcfreduce/internal/fault"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

// FailureConfig parameterizes the Figs. 4/7 fault-tolerance experiment:
// a single permanent link failure injected into a reduction on a 6D
// hypercube, with the full per-iteration error trace recorded.
type FailureConfig struct {
	// Algorithm under test (PF for Fig. 4, PCF for Fig. 7).
	Algorithm Algorithm
	// HypercubeDim is the topology dimension (paper: 6, i.e. 64 nodes).
	HypercubeDim int
	// FailAt is the iteration at which the link failure is handled
	// (paper: 75 for the left plot, 175 for the right).
	FailAt int
	// Rounds is the total number of iterations (paper: 200).
	Rounds int
	// Seed drives inputs and the schedule. Runs of different algorithms
	// with equal Seed see identical schedules, as in the paper.
	Seed int64
	// Link is the failed link; endpoints default to (0, 1).
	LinkA, LinkB int
	// Abrupt selects the mid-transit failure model (in-flight messages
	// lost) instead of the paper's quiescent model; see
	// sim.Engine.FailLinkAbrupt and EXP-H.
	Abrupt bool
	// Metrics, when non-nil, is attached to the engine for the run, so
	// the figure drivers can record invariant samples and the failure's
	// event trace alongside the error series.
	Metrics *metrics.Recorder
}

// DefaultFailureConfig returns the paper's setup for a given algorithm
// and failure time.
func DefaultFailureConfig(algo Algorithm, failAt int) FailureConfig {
	return FailureConfig{
		Algorithm:    algo,
		HypercubeDim: 6,
		FailAt:       failAt,
		Rounds:       200,
		Seed:         1,
		LinkA:        0,
		LinkB:        1,
	}
}

// FailureResult is the outcome of one Figs. 4/7 run.
type FailureResult struct {
	// Series is the per-iteration max/median local error trace — the
	// two curves the paper plots.
	Series stats.Series
	// ErrBefore is the maximal local error in the iteration just before
	// the failure is handled.
	ErrBefore float64
	// ErrAfter is the maximal local error in the iteration just after.
	ErrAfter float64
	// Fallback is ErrAfter / ErrBefore — how far the failure threw the
	// computation back (≫1 for PF, ≈1 for PCF).
	Fallback float64
	// ErrFinal is the maximal local error at the last iteration.
	ErrFinal float64
}

// Failure runs the single-permanent-link-failure experiment and returns
// the full error trace.
func Failure(cfg FailureConfig) FailureResult {
	g := topology.Hypercube(cfg.HypercubeDim)
	inputs := UniformInputs(g.N(), cfg.Seed)
	ev := fault.LinkFailure(cfg.FailAt, cfg.LinkA, cfg.LinkB)
	if cfg.Abrupt {
		ev = fault.AbruptLinkFailure(cfg.FailAt, cfg.LinkA, cfg.LinkB)
	}
	plan := fault.NewPlan(ev)
	e := newEngine(g, cfg.Algorithm.Protos(g.N()), inputs, cfg.Seed, engineSpec{})
	if cfg.Metrics != nil {
		e.SetMetrics(cfg.Metrics)
	}
	res := e.Run(sim.RunConfig{
		MaxRounds: cfg.Rounds,
		Record:    true,
		OnRound:   plan.OnRound,
	})
	out := FailureResult{Series: res.Series}
	if cfg.FailAt >= 1 && cfg.FailAt < len(res.Series) {
		out.ErrBefore = res.Series[cfg.FailAt-1].Max
		out.ErrAfter = res.Series[cfg.FailAt].Max
		if out.ErrBefore > 0 {
			out.Fallback = out.ErrAfter / out.ErrBefore
		}
	}
	out.ErrFinal = res.Series.FinalMax()
	return out
}

// NodeCrashResult is the outcome of a node-crash run (extension of the
// paper's link-failure experiment: "a permanently failed node can be
// interpreted as a permanent failure of all its connecting communication
// links", Sec. II-C).
//
// A crash exposes a structural difference between the algorithms. PF's
// flow variables hold each edge's complete transfer history, so zeroing
// them returns every survivor's net contribution and the network
// re-converges to the survivors' initial-data aggregate. PCF has
// deliberately folded completed transfers into ϕ (that is what keeps its
// flows small); those transfers cannot be unwound, so the crashed node
// takes its current fair share of the mixed mass with it and — once the
// crash happens after mixing — the survivors converge to approximately
// the ORIGINAL aggregate instead (within ε(t_crash)/n). Both final
// errors are reported so the effect is measurable.
type NodeCrashResult struct {
	Series stats.Series
	// ErrAfter is the maximal error (vs survivors' aggregate) right
	// after the crash.
	ErrAfter float64
	// ErrFinalVsSurvivors is the final maximal error against the
	// survivors' initial-data aggregate (the engine's oracle).
	ErrFinalVsSurvivors float64
	// ErrFinalVsOriginal is the final maximal error against the
	// original (pre-crash) aggregate.
	ErrFinalVsOriginal float64
	// Spread is the final gap between the largest and smallest survivor
	// estimates — internal agreement, independent of target choice.
	Spread float64
}

// NodeCrash crashes one node mid-reduction and traces the surviving
// nodes' convergence.
func NodeCrash(algo Algorithm, dim, crashAt, rounds, node int, seed int64) NodeCrashResult {
	g := topology.Hypercube(dim)
	inputs := UniformInputs(g.N(), seed)
	plan := fault.NewPlan(fault.NodeCrash(crashAt, node))
	e := newEngine(g, algo.Protos(g.N()), inputs, seed, engineSpec{})
	original := e.Targets()[0]
	res := e.Run(sim.RunConfig{MaxRounds: rounds, Record: true, OnRound: plan.OnRound})
	out := NodeCrashResult{Series: res.Series, ErrFinalVsSurvivors: res.Series.FinalMax()}
	if crashAt < len(res.Series) {
		out.ErrAfter = res.Series[crashAt].Max
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, est := range e.Estimates() {
		if est == nil {
			continue // the crashed node
		}
		if err := stats.RelErr(est[0], original); err > out.ErrFinalVsOriginal {
			out.ErrFinalVsOriginal = err
		}
		lo = math.Min(lo, est[0])
		hi = math.Max(hi, est[0])
	}
	out.Spread = hi - lo
	return out
}
