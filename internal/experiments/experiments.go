// Package experiments contains one harness per figure of the paper's
// evaluation (Figs. 2–4 and 6–8) plus the ablation experiments listed in
// DESIGN.md (EXP-A through EXP-G). Each harness returns structured data;
// the cmd/figures and cmd/qrbench binaries render it as tables/CSV, and
// the repository-root benchmarks wrap the same harnesses.
//
// All harnesses are deterministic given their seed parameters.
package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"pcfreduce/internal/core"
	"pcfreduce/internal/flowupdate"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/pushsum"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// Algorithm couples a reduction algorithm's display name with its
// per-node constructor.
type Algorithm struct {
	Name string
	New  func() gossip.Protocol
}

// The algorithm registry used by all harnesses and binaries.
var (
	PushSum      = Algorithm{Name: "push-sum", New: func() gossip.Protocol { return pushsum.New() }}
	PushFlow     = Algorithm{Name: "PF", New: func() gossip.Protocol { return pushflow.New() }}
	PCF          = Algorithm{Name: "PCF", New: func() gossip.Protocol { return core.NewEfficient() }}
	PCFRobust    = Algorithm{Name: "PCF-robust", New: func() gossip.Protocol { return core.NewRobust() }}
	FlowUpdating = Algorithm{Name: "flow-updating", New: func() gossip.Protocol { return flowupdate.New() }}
)

// AlgorithmByName resolves a registry name ("pushsum", "pf", "pcf",
// "pcf-robust", "fu").
func AlgorithmByName(name string) (Algorithm, error) {
	switch name {
	case "pushsum", "push-sum", "ps":
		return PushSum, nil
	case "pushflow", "pf":
		return PushFlow, nil
	case "pcf":
		return PCF, nil
	case "pcf-robust", "pcfr":
		return PCFRobust, nil
	case "fu", "flowupdating", "flow-updating":
		return FlowUpdating, nil
	default:
		return Algorithm{}, fmt.Errorf("unknown algorithm %q (want pushsum|pf|pcf|pcf-robust|fu)", name)
	}
}

// Protos builds n protocol instances.
func (a Algorithm) Protos(n int) []gossip.Protocol {
	out := make([]gossip.Protocol, n)
	for i := range out {
		out[i] = a.New()
	}
	return out
}

// UniformInputs returns n seeded uniform U[0,1) initial values — the
// initial data distribution used for the accuracy and fault-tolerance
// experiments (the paper does not prescribe one; see DESIGN.md).
func UniformInputs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

// TopologyKind selects between the two families evaluated in
// Figs. 3 and 6.
type TopologyKind int

const (
	// Torus3D is the cubic 3D torus family (2^i)³.
	Torus3D TopologyKind = iota
	// HypercubeTopo is the hypercube family of dimension 3i.
	HypercubeTopo
)

// String returns the paper's label for the topology family.
func (k TopologyKind) String() string {
	switch k {
	case Torus3D:
		return "3D Torus"
	case HypercubeTopo:
		return "Hypercube"
	default:
		return "unknown"
	}
}

// Build constructs the family member with 2^(3i) nodes, i = logSide.
func (k TopologyKind) Build(logSide int) *topology.Graph {
	switch k {
	case Torus3D:
		side := 1 << uint(logSide)
		return topology.Torus3D(side, side, side)
	case HypercubeTopo:
		return topology.Hypercube(3 * logSide)
	default:
		panic("experiments: unknown topology kind")
	}
}

// runToFloor runs a reduction until its accuracy floor: stop when the
// maximal error stops improving for stall rounds (or maxRounds).
func runToFloor(g *topology.Graph, algo Algorithm, inputs []float64, agg gossip.Aggregate, seed int64, maxRounds, stall int) sim.Result {
	e := newEngine(g, algo.Protos(g.N()), inputs, seed, engineSpec{agg: agg})
	return e.Run(sim.RunConfig{MaxRounds: maxRounds, StallRounds: stall})
}

// errNoFlows reports an algorithm that does not expose per-edge flows.
var errNoFlows = errors.New("experiments: algorithm does not implement gossip.Flows")

// engineSpec selects what newEngine builds beyond the graph, protocols,
// inputs and seed. The zero value is an averaging engine on the
// sequential model.
type engineSpec struct {
	agg    gossip.Aggregate // initial weights of the scalar inputs
	shards int              // > 0: the phase-split model on that many shards
}

// newEngine is the package's one engine constructor: scalar inputs over
// pre-built protocol instances (so callers can inspect them afterwards),
// laid out as spec says, plus any further engine options (detector,
// join factory).
func newEngine(g *topology.Graph, protos []gossip.Protocol, inputs []float64, seed int64, spec engineSpec, opts ...sim.EngineOption) *sim.Engine {
	if spec.shards > 0 {
		opts = append(opts, sim.WithShards(spec.shards))
	}
	return sim.NewScalar(g, protos, inputs, spec.agg, seed, opts...)
}

// simRunToEps is the standard run-to-target configuration.
func simRunToEps(eps float64, maxRounds int) sim.RunConfig {
	return sim.RunConfig{MaxRounds: maxRounds, Eps: eps}
}
