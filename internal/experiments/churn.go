package experiments

// Open-world churn experiments: sustained membership churn (joins,
// graceful leaves, Watts–Strogatz rewires) and per-link heterogeneous
// loss, the robustness regime of the open-world extension. Two
// harnesses:
//
//   - Churn drives a fault.ChurnSchedule through the simulator and
//     measures convergence to the live-roster mean plus the worst
//     mass-conservation residual observed across every membership
//     event — the paper's Sec. II-A invariant extended to a roster
//     that changes under the algorithm's feet.
//
//   - LossBias reproduces the transmission-failure bias analysis of
//     arXiv 1504.08193: under uniform per-link loss p, push-sum's
//     expected global weight decays like (1−p/2)^T (each node pushes
//     half its mass per round; a drop destroys it), while the
//     flow-based algorithms keep their mass exactly — loss only delays
//     flow-state synchronization, it never destroys the underlying
//     idempotent state.

import (
	"fmt"
	"math"

	"pcfreduce/internal/fault"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

// ChurnConfig parameterizes one sustained-churn run.
type ChurnConfig struct {
	// Algorithm under test. Its constructor also serves as the join
	// factory for nodes that enter mid-run.
	Algorithm Algorithm
	// Graph is the base topology the overlay mutates away from.
	Graph *topology.Graph
	// Opts shapes the generated churn schedule. Opts.Rounds defaults to
	// Rounds.
	Opts fault.ChurnOptions
	// Rounds is the simulation horizon (required, > 0).
	Rounds int
	// Seed drives inputs, the engine and the schedule.
	Seed int64
	// Shards, when > 0, runs the engine in the deterministic phase-split
	// model with that many shards (byte-identical across shard counts —
	// the churn property suite asserts it).
	Shards int
	// Eps is the convergence target against the live-roster mean
	// (default 1e-6, checked at the horizon rather than stopping early:
	// churn keeps perturbing the system, so the interesting question is
	// where it stands after the schedule ends).
	Eps float64
	// QuietTail reserves the last rounds of the horizon as churn-free
	// (default Rounds/4): membership events stop, the system re-mixes,
	// and the final error/mass measurements see a settled state. 0 uses
	// the default; negative disables the tail.
	QuietTail int
}

// ChurnResult summarizes one sustained-churn run.
type ChurnResult struct {
	Algorithm string
	// StartNodes and FinalLive are the roster sizes before and after the
	// schedule (joins minus leaves).
	StartNodes, FinalLive int
	// Joins, Leaves, Rewires and LossyLinks count the schedule's events.
	Joins, Leaves, Rewires, LossyLinks int
	// FinalMaxErr is the worst alive-node error against the live-roster
	// mean at the horizon; Converged reports FinalMaxErr ≤ Eps.
	FinalMaxErr float64
	Converged   bool
	// MaxMassResidual is the worst relative deviation of the global
	// mass ratio Σx/Σw from the live-roster oracle, sampled after every
	// round that carried a membership event. Mid-run samples include
	// mass riding in unacknowledged exchanges, so this is a transient
	// churn trend, not an exactness claim.
	MaxMassResidual float64
	// FinalMassResidual is the same residual at the horizon after Drain
	// (all in-flight messages delivered): the exact Sec. II-A invariant
	// over the final live roster. For the flow protocols this is
	// rounding error (≤1e-9 relative) across any schedule.
	FinalMassResidual float64
	Rounds            int
}

// massRatioResidual measures the relative deviation of the engine's
// global mass ratio from its live-roster oracle target.
func massRatioResidual(e *sim.Engine) float64 {
	gm := e.GlobalMass()
	t := e.Targets()[0]
	return math.Abs(gm.X[0]/gm.W-t) / math.Max(1, math.Abs(t))
}

// Churn runs one sustained-churn experiment. The schedule is validated
// against the base graph before anything runs; an invalid schedule is a
// bug in the generator and panics.
func Churn(cfg ChurnConfig) ChurnResult {
	if cfg.Rounds <= 0 {
		panic("experiments: ChurnConfig.Rounds must be positive")
	}
	g := cfg.Graph
	tail := cfg.QuietTail
	if tail == 0 {
		tail = cfg.Rounds / 4
	}
	if tail < 0 {
		tail = 0
	}
	opts := cfg.Opts
	if opts.Rounds == 0 {
		opts.Rounds = cfg.Rounds - tail
	}
	if cfg.Eps == 0 {
		cfg.Eps = 1e-6
	}
	plan := fault.ChurnSchedule(g, opts, cfg.Seed)
	if err := plan.Validate(g); err != nil {
		panic(fmt.Sprintf("experiments: generated churn schedule invalid: %v", err))
	}

	out := ChurnResult{Algorithm: cfg.Algorithm.Name, StartNodes: g.N()}
	eventRounds := make(map[int]bool)
	for _, ev := range plan.Events() {
		eventRounds[ev.Round] = true
		switch ev.Op {
		case fault.OpNodeJoin:
			out.Joins++
		case fault.OpNodeLeave:
			out.Leaves++
		case fault.OpEdgeRewire:
			out.Rewires++
		case fault.OpSetLinkLoss:
			out.LossyLinks++
		}
	}

	inputs := UniformInputs(g.N(), cfg.Seed)
	e := newEngine(g, cfg.Algorithm.Protos(g.N()), inputs, cfg.Seed, engineSpec{shards: cfg.Shards},
		sim.WithJoinFactory(cfg.Algorithm.New))
	defer e.Close()

	res := e.Run(sim.RunConfig{
		MaxRounds: cfg.Rounds,
		OnRound:   plan.OnRound,
		AfterRound: func(round int, maxErr float64) {
			// Membership events fire at the start of round r (OnRound);
			// sample the invariant once that round has settled.
			if eventRounds[round-1] || eventRounds[round] {
				if r := massRatioResidual(e); r > out.MaxMassResidual {
					out.MaxMassResidual = r
				}
			}
		},
	})
	e.Drain()
	out.FinalMassResidual = massRatioResidual(e)
	out.Rounds = res.Rounds
	out.FinalMaxErr = res.Series.FinalMax()
	out.Converged = out.FinalMaxErr <= cfg.Eps
	for i := 0; i < e.N(); i++ {
		if e.Alive(i) {
			out.FinalLive++
		}
	}
	return out
}

// ChurnSweep runs the same churn schedule (same graph, seed and
// options) across a set of algorithms, the open-world analogue of the
// accuracy sweeps: every algorithm faces byte-identical membership
// events.
func ChurnSweep(cfg ChurnConfig, algos []Algorithm) []ChurnResult {
	out := make([]ChurnResult, 0, len(algos))
	for _, a := range algos {
		c := cfg
		c.Algorithm = a
		out = append(out, Churn(c))
	}
	return out
}

// LossBiasConfig parameterizes the transmission-failure bias experiment.
type LossBiasConfig struct {
	Algorithm Algorithm
	// Graph is the (fixed, closed-world) topology.
	Graph *topology.Graph
	// P is the uniform per-link loss rate applied to every edge in both
	// directions (each message dropped independently).
	P float64
	// Rounds is the lossy horizon T of the decay prediction. LossBias
	// then runs Rounds/4 rounds loss-free so the flow protocols
	// re-synchronize their per-edge state before measurement: a flow
	// edge whose last message was lost is out of sync until the next
	// delivery, which is transient skew, not destroyed mass. Push-sum's
	// losses are permanent either way.
	Rounds int
	Seed   int64
}

// LossBiasResult reports the measured mass decay against the
// arXiv 1504.08193 push-sum prediction.
type LossBiasResult struct {
	Algorithm string
	// WeightRetained is W_final / W_0 over the live roster.
	WeightRetained float64
	// Predicted is the push-sum expectation (1−P/2)^Rounds; flow-based
	// algorithms are predicted to retain everything (1.0).
	Predicted float64
	// EstimateBias is the relative deviation of the final mean estimate
	// from the true aggregate — the user-visible damage. Mass decay
	// moves x and w together, so push-sum's *estimate* bias stays far
	// below its mass decay until the weights underflow.
	EstimateBias float64
}

// LossBias applies uniform per-link loss to every edge via the
// open-world SetLinkLoss path and measures the global weight decay.
func LossBias(cfg LossBiasConfig) LossBiasResult {
	if cfg.Rounds <= 0 {
		panic("experiments: LossBiasConfig.Rounds must be positive")
	}
	g := cfg.Graph
	settle := cfg.Rounds / 4
	loss := make(fault.LinkLoss)
	for _, edge := range g.Edges() {
		loss.Set(edge[0], edge[1], cfg.P)
	}
	plan := fault.NewPlan(loss.Events(0)...)
	for _, ev := range loss.Events(cfg.Rounds) {
		plan.Add(fault.SetLinkLoss(cfg.Rounds, ev.A, ev.B, 0))
	}
	inputs := UniformInputs(g.N(), cfg.Seed)
	e := newEngine(g, cfg.Algorithm.Protos(g.N()), inputs, cfg.Seed, engineSpec{})
	target := e.Targets()[0]
	e.Run(sim.RunConfig{MaxRounds: cfg.Rounds + settle, OnRound: plan.OnRound})
	e.Drain()

	gm := e.GlobalMass()
	out := LossBiasResult{
		Algorithm:      cfg.Algorithm.Name,
		WeightRetained: gm.W / float64(g.N()),
		Predicted:      1.0,
	}
	if cfg.Algorithm.Name == PushSum.Name {
		out.Predicted = math.Pow(1-cfg.P/2, float64(cfg.Rounds))
	}
	var mean stats.Sum2
	alive := 0
	for i, est := range e.Estimates() {
		if est == nil || !e.Alive(i) {
			continue
		}
		mean.Add(est[0])
		alive++
	}
	if alive > 0 {
		out.EstimateBias = math.Abs(mean.Value()/float64(alive)-target) / math.Max(1, math.Abs(target))
	}
	return out
}
