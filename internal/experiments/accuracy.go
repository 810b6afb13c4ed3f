package experiments

import (
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/topology"
)

// AccuracyPoint is one point of the Figs. 3/6 series: the best (smallest)
// maximal relative local error an algorithm reaches on a topology of a
// given size — its accuracy floor.
type AccuracyPoint struct {
	Topology  string
	Aggregate string
	Nodes     int
	// FloorMaxErr is the smallest maximal local error observed.
	FloorMaxErr float64
	// Rounds is the number of rounds executed until the floor stalled.
	Rounds int
	// ReachedTarget reports whether the floor is at or below the
	// paper's target accuracy ε = 10⁻¹⁵ (the criterion of Fig. 6).
	ReachedTarget bool
}

// AccuracyConfig parameterizes the Fig. 3 (PF) / Fig. 6 (PCF) accuracy
// scaling experiment.
type AccuracyConfig struct {
	// Algorithm under test.
	Algorithm Algorithm
	// MaxLogSide caps the family index i: sizes 2^3 … 2^(3·MaxLogSide).
	// The paper runs to i = 5 (32768 nodes).
	MaxLogSide int
	// Seed drives inputs and schedules.
	Seed int64
	// MaxRounds caps each run (safety net; the stall criterion normally
	// stops earlier).
	MaxRounds int
	// StallRounds is the no-improvement window defining the floor.
	StallRounds int
	// Target is the accuracy the paper prescribes (10⁻¹⁵).
	Target float64
}

// DefaultAccuracyConfig returns the paper-scale configuration for the
// given algorithm. maxLogSide ≤ 5; use 3 or 4 for quick runs.
func DefaultAccuracyConfig(algo Algorithm, maxLogSide int) AccuracyConfig {
	return AccuracyConfig{
		Algorithm:   algo,
		MaxLogSide:  maxLogSide,
		Seed:        1,
		MaxRounds:   20000,
		StallRounds: 80,
		Target:      1e-15,
	}
}

// Accuracy runs the Figs. 3/6 grid: for each topology family (3D torus,
// hypercube), aggregate (SUM, AVG) and size 2^(3i), i = 1..MaxLogSide,
// it runs the algorithm to its accuracy floor.
func Accuracy(cfg AccuracyConfig) []AccuracyPoint {
	var out []AccuracyPoint
	for _, kind := range []TopologyKind{Torus3D, HypercubeTopo} {
		for _, agg := range []gossip.Aggregate{gossip.Average, gossip.Sum} {
			for i := 1; i <= cfg.MaxLogSide; i++ {
				out = append(out, accuracyPoint(cfg, kind, agg, i))
			}
		}
	}
	return out
}

func accuracyPoint(cfg AccuracyConfig, kind TopologyKind, agg gossip.Aggregate, logSide int) AccuracyPoint {
	g := kind.Build(logSide)
	inputs := UniformInputs(g.N(), cfg.Seed)
	res := runToFloor(g, cfg.Algorithm, inputs, agg, cfg.Seed+int64(logSide), cfg.MaxRounds, cfg.StallRounds)
	return AccuracyPoint{
		Topology:      kind.String(),
		Aggregate:     agg.String(),
		Nodes:         g.N(),
		FloorMaxErr:   res.BestMax,
		Rounds:        res.Rounds,
		ReachedTarget: res.BestMax <= cfg.Target,
	}
}

// AccuracySingle measures one cell of the grid, used by benchmarks.
func AccuracySingle(algo Algorithm, kind TopologyKind, agg gossip.Aggregate, logSide int, seed int64) AccuracyPoint {
	cfg := DefaultAccuracyConfig(algo, logSide)
	cfg.Seed = seed
	return accuracyPoint(cfg, kind, agg, logSide)
}

// BusExampleResult captures the paper's Fig. 2 worked example on the bus
// network: the converged per-node estimates and forward-flow state.
type BusExampleResult struct {
	N int
	// Estimates are the converged local estimates (all ≈ 2, the global
	// average).
	Estimates []float64
	// ForwardFlowValue[i] and ForwardFlowWeight[i] are the value and
	// weight components of the flow f(i, i+1).
	ForwardFlowValue  []float64
	ForwardFlowWeight []float64
	// FlowInvariant[i] is fˣ(i,i+1) − r·fʷ(i,i+1) where r = 2 is the
	// target average. The paper's Fig. 2 presents the flows for the
	// idealized weightless case fʷ ≡ 0, where this quantity IS the
	// flow; in the real weighted algorithm individual flows are
	// schedule-dependent, but this combination telescopes along the
	// tree to the unique value n − i − 1 at exact convergence (see
	// ExpectedForwardFlow).
	FlowInvariant []float64
	// Rounds until convergence.
	Rounds int
}

// ExpectedForwardFlow returns the analytic tree-equilibrium quantity
// fˣ(i,i+1) − 2·fʷ(i,i+1) for the bus example with v₀ = n+1 and
// vᵢ = 1 (0-based node indexing): n − (i+1).
//
// Derivation: at exact convergence every node's estimate is the average
// r = 2, i.e. its value mass equals r times its weight mass. Summing
// value-minus-r·weight mass over the prefix 0..i, all interior flows
// cancel (flow conservation) and only the cut edge (i, i+1) remains:
//
//	fˣ(i,i+1) − r·fʷ(i,i+1) = Σ_{k≤i} (x_k(0) − r·w_k(0)) = n − i − 1.
//
// With the paper's simplification of weights constant at one (fʷ ≡ 0)
// this reduces to the flows printed in Fig. 2.
func ExpectedForwardFlow(n, i int) float64 { return float64(n - i - 1) }

// BusExample runs a flow algorithm (one exposing gossip.Flows) on the
// paper's Fig. 2 bus network: n nodes in a line, v₀ = n+1, vᵢ = 1,
// averaging. The converged estimates are 2 everywhere and the flow
// invariant matches ExpectedForwardFlow regardless of schedule; for PF
// the raw flows grow ~linearly in n (the paper's accuracy hazard), for
// PCF they stay near zero.
func BusExample(algo Algorithm, n int, seed int64) (BusExampleResult, error) {
	g := topology.Path(n)
	inputs := make([]float64, n)
	inputs[0] = float64(n + 1)
	for i := 1; i < n; i++ {
		inputs[i] = 1
	}
	protos := algo.Protos(n)
	e := newEngine(g, protos, inputs, seed, engineSpec{})
	res := e.Run(simRunToEps(1e-15, 500*n))
	// Settle in-flight messages so flow conservation holds exactly when
	// the flows are read back.
	e.Drain()
	out := BusExampleResult{N: n, Rounds: res.Rounds}
	for i := 0; i < n; i++ {
		est := protos[i].EstimateInto(nil)
		out.Estimates = append(out.Estimates, est[0])
	}
	const r = 2 // target average of the Fig. 2 data
	for i := 0; i < n-1; i++ {
		fl, ok := protos[i].(gossip.Flows)
		if !ok {
			return out, errNoFlows
		}
		f := fl.Flow(i + 1)
		out.ForwardFlowValue = append(out.ForwardFlowValue, f.X[0])
		out.ForwardFlowWeight = append(out.ForwardFlowWeight, f.W)
		out.FlowInvariant = append(out.FlowInvariant, f.X[0]-r*f.W)
	}
	return out, nil
}
