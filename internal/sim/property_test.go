package sim_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

// propertyCase is one randomized invariant-check scenario, fully
// determined by its seed so failures replay exactly.
type propertyCase struct {
	seed   int64
	graph  *topology.Graph
	algo   int // index into allProtocols
	inputs []float64
	events []fault.Event
	rounds int
}

// buildPropertyCase derives a scenario from a seed: a random topology
// from seven families, a random protocol, random inputs and a random
// schedule of notified link failures.
//
// The plans are restricted to quiescent (notified) link failures on
// purpose: FailLink flushes in-flight messages before zeroing the edge,
// which is exactly the regime in which the paper's conservation and flow
// anti-symmetry arguments are bitwise statements. Message loss, reorder
// injectors, crashes and silent failures all void one or both invariants
// by design (a crashed node's mass is gone; a dropped message leaves a
// flow unacknowledged) and are covered by dedicated tests instead.
func buildPropertyCase(seed int64) propertyCase {
	rng := rand.New(rand.NewSource(seed))
	var g *topology.Graph
	switch rng.Intn(7) {
	case 0:
		g = topology.Ring(6 + rng.Intn(20))
	case 1:
		g = topology.Hypercube(3 + rng.Intn(3))
	case 2:
		g = topology.Torus2D(2+rng.Intn(3), 3+rng.Intn(3))
	case 3:
		g = topology.RandomRegular(16, 4, seed)
	case 4:
		g = topology.Path(5 + rng.Intn(20))
	case 5:
		g = topology.BinaryTree(7 + rng.Intn(20))
	default:
		g = topology.WattsStrogatz(16, 4, 0.3, seed)
	}
	c := propertyCase{
		seed:   seed,
		graph:  g,
		algo:   rng.Intn(len(allProtocols)),
		inputs: make([]float64, g.N()),
		rounds: 60,
	}
	for i := range c.inputs {
		c.inputs[i] = rng.Float64()*10 - 5
	}
	edges := g.Edges()
	for k := rng.Intn(4); k > 0; k-- {
		e := edges[rng.Intn(len(edges))]
		c.events = append(c.events, fault.LinkFailure(1+rng.Intn(c.rounds-10), e[0], e[1]))
	}
	return c
}

// runPropertyCase replays the case with the given event schedule and
// checks every applicable invariant, returning the first violation.
func runPropertyCase(c propertyCase, events []fault.Event) error {
	tc := allProtocols[c.algo]
	e := sim.NewScalar(c.graph, fuzzProtos(c.graph.N(), tc.mk), c.inputs, gossip.Average, c.seed)
	plan := fault.NewPlan(events...)
	e.Run(sim.RunConfig{MaxRounds: c.rounds, OnRound: plan.OnRound})
	e.Drain()

	// Invariant 1 — mass conservation: with every exchange acknowledged
	// and only notified link failures injected, the global (value, weight)
	// mass equals the initial mass up to summation roundoff.
	var wantX, wantW stats.Sum2
	for _, x := range c.inputs {
		wantX.Add(x)
		wantW.Add(1)
	}
	got := e.GlobalMass()
	scale := math.Max(1, math.Abs(wantX.Value()))
	if math.Abs(got.X[0]-wantX.Value()) > 1e-9*scale || math.Abs(got.W-wantW.Value()) > 1e-9 {
		return fmt.Errorf("%s: mass not conserved: got (%.17g, %.17g), want (%.17g, %.17g)",
			tc.name, got.X[0], got.W, wantX.Value(), wantW.Value())
	}

	// Invariant 2 — bitwise flow anti-symmetry after Drain. For PF and FU
	// the mirror flows must be exact negations (every send happens after
	// the sender drained its inbox, so the last message on each direction
	// fixes the mirror). For PCF the handshake lets one endpoint run a
	// slot ahead, so each slot pair is either an exact negation or has a
	// zero side awaiting cancellation.
	for _, edge := range c.graph.Edges() {
		i, j := edge[0], edge[1]
		pi, pj := e.Protocol(i), e.Protocol(j)
		if ni, ok := pi.(*core.Node); ok {
			nj := pj.(*core.Node)
			fi, _ := ni.Slots(j)
			fj, _ := nj.Slots(i)
			for s := 0; s < 2; s++ {
				if !fi[s].Equal(fj[s].Neg()) && !fi[s].IsZero() && !fj[s].IsZero() {
					return fmt.Errorf("%s: edge (%d,%d) slot %d not anti-symmetric: %v vs %v",
						tc.name, i, j, s, fi[s], fj[s])
				}
			}
			continue
		}
		fli, ok := pi.(gossip.Flows)
		if !ok {
			continue // push-sum keeps no flows
		}
		fi := fli.Flow(j)
		fj := pj.(gossip.Flows).Flow(i)
		if !fi.Equal(fj.Neg()) {
			return fmt.Errorf("%s: edge (%d,%d) flows not anti-symmetric: %v vs %v",
				tc.name, i, j, fi, fj)
		}
	}

	// Invariant 3 — drift bound: in fault-free runs every protocol is
	// (exactly or approximately) a sequence of convex mass combinations
	// with positive weights, so no estimate can leave the input range by
	// more than roundoff. Push-sum keeps no per-link state, so for it the
	// bound survives link failures too; for the flow protocols a failure
	// legitimately throws estimates outside the range (the restart effect
	// of the paper's Fig. 4), so the bound is only asserted fault-free.
	if len(events) > 0 && tc.name != "pushsum" {
		return nil
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range c.inputs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	span := hi - lo
	for i := 0; i < e.N(); i++ {
		est := estimateOf(e.Protocol(i))[0]
		if math.IsNaN(est) || est < lo-1e-6*span || est > hi+1e-6*span {
			return fmt.Errorf("%s: node %d estimate %.17g drifted outside inputs [%g, %g]",
				tc.name, i, est, lo, hi)
		}
	}
	return nil
}

// shrinkEvents greedily drops schedule events while the case still
// fails, returning a locally minimal reproduction.
func shrinkEvents(c propertyCase, events []fault.Event) []fault.Event {
	minimal := events
	for changed := true; changed; {
		changed = false
		for i := range minimal {
			cand := append(append([]fault.Event{}, minimal[:i]...), minimal[i+1:]...)
			if runPropertyCase(c, cand) != nil {
				minimal = cand
				changed = true
				break
			}
		}
	}
	return minimal
}

// TestPropertyInvariants runs ~100 generated cases over randomized
// topologies, protocols, inputs and notified-link-failure schedules,
// checking exact mass conservation, bitwise flow anti-symmetry and the
// estimate drift bound. On failure the schedule is shrunk to a minimal
// reproduction and the case seed is logged.
func TestPropertyInvariants(t *testing.T) {
	const cases = 100
	for k := 0; k < cases; k++ {
		seed := int64(40_000 + k)
		c := buildPropertyCase(seed)
		if err := runPropertyCase(c, c.events); err != nil {
			minimal := shrinkEvents(c, c.events)
			t.Fatalf("property violated (replay with buildPropertyCase(%d), minimal schedule %v):\n  %v",
				seed, minimal, err)
		}
	}
}
