package experiments

import (
	"math"

	"pcfreduce/internal/allreduce"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// ---------------------------------------------------------------------
// EXP-A: push-sum fragility — a single lost message permanently biases
// the result, while flow-based algorithms self-heal (paper Sec. II-A).
// ---------------------------------------------------------------------

// SingleLossResult reports the accuracy floor of one algorithm when
// exactly one message is dropped mid-computation.
type SingleLossResult struct {
	Algorithm string
	// FloorMaxErr is the best maximal error ever reached after the
	// loss. For push-sum it plateaus near the relative weight of the
	// lost mass; for PF/PCF it reaches machine precision.
	FloorMaxErr float64
	Rounds      int
}

// SingleLoss drops exactly the first message sent in round dropRound and
// then runs to the accuracy floor.
func SingleLoss(algo Algorithm, dim, dropRound int, seed int64) SingleLossResult {
	g := topology.Hypercube(dim)
	inputs := UniformInputs(g.N(), seed)
	e := newEngine(g, algo.Protos(g.N()), inputs, seed, engineSpec{})
	dropped := false
	e.SetInterceptor(sim.InterceptorFunc(func(round int, msg *gossip.Message) bool {
		if !dropped && round == dropRound {
			dropped = true
			return false
		}
		return true
	}))
	res := e.Run(sim.RunConfig{MaxRounds: 5000, StallRounds: 100})
	return SingleLossResult{Algorithm: algo.Name, FloorMaxErr: res.BestMax, Rounds: res.Rounds}
}

// ---------------------------------------------------------------------
// EXP-B: scaling — gossip reductions need O(log n + log 1/ε) rounds,
// the same shape as the O(log n) steps of parallel reductions (Sec. I).
// ---------------------------------------------------------------------

// ScalingPoint compares rounds-to-ε of the gossip algorithms with the
// step count of recursive doubling at one node count.
type ScalingPoint struct {
	Nodes int
	// RoundsToEps maps algorithm name to the rounds needed to reach the
	// target (−1 if not reached within the cap).
	RoundsToEps map[string]int
	// ParallelSteps is the recursive-doubling step count, log2 n.
	ParallelSteps int
}

// Scaling measures rounds-to-ε on hypercubes of dimension minDim..maxDim
// for the given algorithms.
func Scaling(algos []Algorithm, minDim, maxDim int, eps float64, seed int64) []ScalingPoint {
	var out []ScalingPoint
	for dim := minDim; dim <= maxDim; dim++ {
		g := topology.Hypercube(dim)
		inputs := UniformInputs(g.N(), seed)
		pt := ScalingPoint{Nodes: g.N(), RoundsToEps: map[string]int{}, ParallelSteps: dim}
		for _, algo := range algos {
			e := newEngine(g, algo.Protos(g.N()), inputs, seed, engineSpec{})
			res := e.Run(simRunToEps(eps, 100*(dim+1)*10))
			if res.Converged {
				pt.RoundsToEps[algo.Name] = res.Rounds
			} else {
				pt.RoundsToEps[algo.Name] = -1
			}
		}
		out = append(out, pt)
	}
	return out
}

// ---------------------------------------------------------------------
// EXP-C: failure-free equivalence — PF and PCF produce identical
// estimates for identical schedules (paper Sec. III-B), so PCF's extra
// machinery costs nothing in failure-free convergence speed.
// ---------------------------------------------------------------------

// EquivalenceResult quantifies the PF-vs-PCF estimate agreement under an
// identical schedule.
type EquivalenceResult struct {
	// MaxDivergence is the largest |est_PF − est_PCF| over all nodes
	// and rounds. Exactly 0 on dyadic inputs; O(ε_mach·rounds) on
	// general inputs.
	MaxDivergence float64
	// RoundsPF and RoundsPCF are the rounds each needed to reach eps.
	RoundsPF, RoundsPCF int
}

// Equivalence runs PF and PCF (efficient) lockstep with the same seed
// and compares estimates round by round. With dyadic=true the inputs are
// small integers; for the first ~15 rounds every operation is then exact
// in binary floating point (values are dyadic rationals whose depth has
// not yet exceeded the 53-bit mantissa), so the estimates must agree
// bit-for-bit — the Sec. III-B equivalence made literal. Over longer
// horizons the two algorithms sum the same quantities in different
// orders and accumulate ulp-level rounding divergence (which is exactly
// the effect that makes PCF *more accurate* at scale: its flow values
// stay small, so its rounding errors do too).
func Equivalence(dim, rounds int, seed int64, dyadic bool, eps float64) EquivalenceResult {
	g := topology.Hypercube(dim)
	n := g.N()
	var inputs []float64
	if dyadic {
		inputs = make([]float64, n)
		for i := range inputs {
			inputs[i] = float64((i*7)%16 + 1)
		}
	} else {
		inputs = UniformInputs(n, seed)
	}
	ePF := newEngine(g, PushFlow.Protos(n), inputs, seed, engineSpec{})
	ePCF := newEngine(g, PCF.Protos(n), inputs, seed, engineSpec{})
	out := EquivalenceResult{RoundsPF: -1, RoundsPCF: -1}
	for r := 0; r < rounds; r++ {
		ePF.Step()
		ePCF.Step()
		for i := 0; i < n; i++ {
			a := ePF.Protocol(i).EstimateInto(nil)[0]
			b := ePCF.Protocol(i).EstimateInto(nil)[0]
			if d := math.Abs(a - b); d > out.MaxDivergence {
				out.MaxDivergence = d
			}
		}
		if out.RoundsPF < 0 && ePF.MaxError() <= eps {
			out.RoundsPF = r + 1
		}
		if out.RoundsPCF < 0 && ePCF.MaxError() <= eps {
			out.RoundsPCF = r + 1
		}
	}
	return out
}

// ---------------------------------------------------------------------
// EXP-D: sustained message loss — flow algorithms converge through loss
// (slower), push-sum accumulates permanent error.
// ---------------------------------------------------------------------

// LossSweepPoint reports behavior of one algorithm under one loss rate.
type LossSweepPoint struct {
	Algorithm string
	LossRate  float64
	// RoundsToEps is the rounds needed to reach eps under loss, −1 if
	// never reached within the cap.
	RoundsToEps int
	// FloorMaxErr is the best error reached within the cap.
	FloorMaxErr float64
}

// LossSweep measures convergence under sustained uniform message loss.
func LossSweep(algos []Algorithm, rates []float64, dim int, eps float64, maxRounds int, seed int64) []LossSweepPoint {
	g := topology.Hypercube(dim)
	inputs := UniformInputs(g.N(), seed)
	var out []LossSweepPoint
	for _, algo := range algos {
		for _, rate := range rates {
			e := newEngine(g, algo.Protos(g.N()), inputs, seed, engineSpec{})
			if rate > 0 {
				e.SetInterceptor(fault.NewLoss(rate, seed+101))
			}
			res := e.Run(sim.RunConfig{MaxRounds: maxRounds, Eps: eps})
			pt := LossSweepPoint{Algorithm: algo.Name, LossRate: rate, RoundsToEps: -1, FloorMaxErr: res.BestMax}
			if res.Converged {
				pt.RoundsToEps = res.Rounds
			}
			out = append(out, pt)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// EXP-E: bit flips — wire corruption during a window; who recovers?
// (Paper Sec. III-A: the Figure 5 variant folds received flows directly
// into ϕ, so corruption becomes an instant mass transfer and large
// flips cause PF-style fall-backs; the robust variant usually erases
// the corruption in place at the next exchange.)
// ---------------------------------------------------------------------

// BitFlipResult reports one algorithm's behavior under a bit-flip storm.
type BitFlipResult struct {
	Algorithm string
	// Flips is the number of injected bit flips.
	Flips int
	// FloorMaxErr is the best error reached after the storm window.
	FloorMaxErr float64
	// RecoveryRounds is the number of rounds after the storm until the
	// error first dropped below eps (−1 if never).
	RecoveryRounds int
}

// BitFlips injects random single-bit payload corruption with probability
// rate per message during rounds [0, stormEnd), then measures recovery.
// With bounded=true only mantissa/sign bits flip (corruption magnitude
// ≤ 2× the payload), the regime where the flow algorithms' self-healing
// is observable; unbounded flips include exponent bits whose finite
// corruptions are conserved as astronomically large mass transfers that
// no averaging algorithm can re-absorb at full precision (see
// fault.BitFlip).
func BitFlips(algo Algorithm, dim int, rate float64, stormEnd, maxRounds int, eps float64, bounded bool, seed int64) BitFlipResult {
	g := topology.Hypercube(dim)
	inputs := UniformInputs(g.N(), seed)
	e := newEngine(g, algo.Protos(g.N()), inputs, seed, engineSpec{})
	flipper := fault.NewBitFlip(rate, seed+202)
	flipper.Bounded = bounded
	e.SetInterceptor(fault.Window(flipper, 0, stormEnd))
	res := e.Run(sim.RunConfig{MaxRounds: maxRounds, Record: true})
	out := BitFlipResult{Algorithm: algo.Name, Flips: flipper.Flips, FloorMaxErr: math.Inf(1), RecoveryRounds: -1}
	for _, p := range res.Series {
		if p.Iteration < stormEnd {
			continue
		}
		if p.Max < out.FloorMaxErr {
			out.FloorMaxErr = p.Max
		}
		if out.RecoveryRounds < 0 && p.Max <= eps {
			out.RecoveryRounds = p.Iteration - stormEnd
		}
	}
	return out
}

// ---------------------------------------------------------------------
// EXP-G: classical allreduce fragility — one lost message corrupts the
// result on many nodes (paper Sec. I).
// ---------------------------------------------------------------------

// FragilityResult counts wrong nodes after a single dropped message in a
// deterministic parallel allreduce versus a gossip reduction.
type FragilityResult struct {
	Method string
	Nodes  int
	// WrongNodes is the number of nodes whose final result is off by
	// more than 10⁻¹² relative.
	WrongNodes int
}

// Fragility drops one message in recursive doubling and the binomial
// tree, and one message in a PCF gossip run, and counts wrong nodes.
func Fragility(logN int, seed int64) []FragilityResult {
	n := 1 << uint(logN)
	inputs := UniformInputs(n, seed)
	want := allreduce.ExactSum(inputs)
	const tol = 1e-12

	// Recursive doubling: drop the message into node 0 in the middle step.
	rd := allreduce.RecursiveDoubling(inputs, func(step, from, to int) bool {
		return step == logN/2 && to == 0
	})
	// Binomial tree: drop one reduce-phase message to the root.
	tr := allreduce.TreeReduceBroadcast(inputs, func(step, from, to int) bool {
		return to == 0 && step == 0
	})
	out := []FragilityResult{
		{Method: "recursive-doubling", Nodes: n, WrongNodes: allreduce.WrongNodes(rd.Values, want, tol)},
		{Method: "binomial-tree", Nodes: n, WrongNodes: allreduce.WrongNodes(tr.Values, want, tol)},
	}

	// Gossip (PCF, SUM): drop one message mid-run, run to the floor.
	g := topology.Hypercube(logN)
	e := newEngine(g, PCF.Protos(n), inputs, seed, engineSpec{agg: gossip.Sum})
	dropped := false
	e.SetInterceptor(sim.InterceptorFunc(func(round int, msg *gossip.Message) bool {
		if !dropped && round == 20 {
			dropped = true
			return false
		}
		return true
	}))
	e.Run(sim.RunConfig{MaxRounds: 4000, Eps: 1e-13})
	wrong := 0
	for _, err := range e.Errors() {
		if err > tol {
			wrong++
		}
	}
	out = append(out, FragilityResult{Method: "gossip-PCF", Nodes: n, WrongNodes: wrong})
	return out
}
