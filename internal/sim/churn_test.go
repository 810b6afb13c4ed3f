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

// churnCase is one randomized open-world scenario: a generated churn
// schedule (joins, graceful leaves, rewires, optional per-link loss)
// over a random topology and protocol, fully determined by its seed.
type churnCase struct {
	seed    int64
	graph   *topology.Graph
	algo    int // index into allProtocols
	inputs  []float64
	plan    *fault.Plan
	rounds  int
	hasLoss bool
}

// buildChurnCase derives a scenario from a seed. The schedule horizon
// stops 20 rounds before the run horizon so the final measurements see
// a quiescent system; one case in four also carries per-link loss.
func buildChurnCase(seed int64) churnCase {
	rng := rand.New(rand.NewSource(seed))
	var g *topology.Graph
	switch rng.Intn(5) {
	case 0:
		g = topology.Ring(8 + rng.Intn(16))
	case 1:
		g = topology.Hypercube(3 + rng.Intn(2))
	case 2:
		g = topology.Torus2D(3, 3+rng.Intn(3))
	case 3:
		g = topology.RandomRegular(16, 4, seed)
	default:
		g = topology.WattsStrogatz(16, 4, 0.3, seed)
	}
	c := churnCase{
		seed:   seed,
		graph:  g,
		algo:   rng.Intn(len(allProtocols)),
		inputs: make([]float64, g.N()),
		rounds: 80,
	}
	for i := range c.inputs {
		c.inputs[i] = rng.Float64()*10 - 5
	}
	opts := fault.ChurnOptions{
		Rounds: c.rounds - 20,
		Every:  4 + rng.Intn(8),
	}
	if rng.Intn(4) == 0 {
		opts.Losses = 1 + rng.Intn(3)
		c.hasLoss = true
	}
	c.plan = fault.ChurnSchedule(g, opts, seed)
	return c
}

// liveOracle replays the schedule's membership bookkeeping: the live
// roster and the exact (Σx, Σw) mass it should hold. A graceful leave
// removes the node's own input from the books (its surplus is a pure
// redistribution among survivors), so the expected mass is simply the
// sum of live inputs.
func liveOracle(c churnCase) (live map[int]bool, wantX, wantW float64) {
	vals := append([]float64(nil), c.inputs...)
	live = make(map[int]bool, len(vals))
	for i := range vals {
		live[i] = true
	}
	for _, ev := range c.plan.Events() {
		switch ev.Op {
		case fault.OpNodeJoin:
			for len(vals) < ev.Node+1 {
				vals = append(vals, 0)
			}
			vals[ev.Node] = ev.Value
			live[ev.Node] = true
		case fault.OpNodeLeave:
			delete(live, ev.Node)
		}
	}
	var sx, sw stats.Sum2
	for i := range live {
		sx.Add(vals[i])
		sw.Add(1)
	}
	return live, sx.Value(), sw.Value()
}

// runChurnCase replays the case and checks the open-world invariants,
// returning the first violation.
func runChurnCase(c churnCase) error {
	tc := allProtocols[c.algo]
	e := sim.NewScalar(c.graph, fuzzProtos(c.graph.N(), tc.mk), c.inputs, gossip.Average, c.seed,
		sim.WithJoinFactory(tc.mk))
	e.Run(sim.RunConfig{MaxRounds: c.rounds, OnRound: c.plan.OnRound})

	// Mass exactness is a loss-free statement: an edge whose last
	// message was dropped holds unsynchronized flow state (transient
	// skew, not destroyed mass). Clear the loss table and let the system
	// re-synchronize before measuring.
	if c.hasLoss {
		o := e.Overlay()
		for i := 0; i < o.N(); i++ {
			for _, j32 := range o.Neighbors(i) {
				j := int(j32)
				if i < j && e.LinkLossRate(i, j) > 0 {
					e.SetLinkLoss(i, j, 0)
				}
			}
		}
		for r := 0; r < 10; r++ {
			e.Step()
		}
	}
	e.Drain()

	// Invariant 1 — the live roster matches the schedule replay.
	live, wantX, wantW := liveOracle(c)
	for i := 0; i < e.N(); i++ {
		if e.Alive(i) != live[i] {
			return fmt.Errorf("%s: node %d alive=%v, oracle says %v", tc.name, i, e.Alive(i), live[i])
		}
	}

	// Invariant 2 — exact mass conservation across every membership
	// event: the live roster holds exactly the sum of live inputs, to
	// within summation roundoff (≤1e-9 relative). Push-sum loses mass to
	// dropped messages, so under loss it is exempt (that bias is the
	// LossBias experiment's subject, not a bug).
	if !(c.hasLoss && tc.name == "pushsum") {
		got := e.GlobalMass()
		scale := math.Max(1, math.Abs(wantX))
		if math.Abs(got.X[0]-wantX) > 1e-9*scale || math.Abs(got.W-wantW) > 1e-9 {
			return fmt.Errorf("%s: mass not conserved: got (%.17g, %.17g), want (%.17g, %.17g)",
				tc.name, got.X[0], got.W, wantX, wantW)
		}
	}

	// Invariant 3 — flow anti-symmetry over the *overlay* edges between
	// live endpoints, same statement as the closed-world property test:
	// mirror flows are exact negations (PCF slot pairs may be one
	// handshake step apart, with a zero side awaiting cancellation).
	o := e.Overlay()
	for i := 0; i < o.N(); i++ {
		if !e.Alive(i) {
			continue
		}
		for _, j32 := range o.Neighbors(i) {
			j := int(j32)
			if j <= i || !e.Alive(j) {
				continue
			}
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
				continue
			}
			fi := fli.Flow(j)
			fj := pj.(gossip.Flows).Flow(i)
			if !fi.Equal(fj.Neg()) {
				return fmt.Errorf("%s: edge (%d,%d) flows not anti-symmetric: %v vs %v",
					tc.name, i, j, fi, fj)
			}
		}
	}
	return nil
}

// TestChurnPropertyInvariants runs 100 generated open-world cases —
// random topology, protocol, inputs and churn schedule — and checks
// roster tracking, exact mass conservation through every join, leave
// and rewire, and flow anti-symmetry over the mutated overlay.
func TestChurnPropertyInvariants(t *testing.T) {
	const cases = 100
	for k := 0; k < cases; k++ {
		seed := int64(70_000 + k)
		c := buildChurnCase(seed)
		if err := runChurnCase(c); err != nil {
			t.Fatalf("churn property violated (replay with buildChurnCase(%d)):\n  %v", seed, err)
		}
	}
}

// churnFingerprint captures the full observable state of a churned
// engine for bitwise comparison across shard counts: estimates, errors,
// liveness and per-overlay-edge flows. fingerprintEngine cannot be
// reused here because it walks the base graph, which joined nodes have
// outgrown.
type churnFingerprint struct {
	estimates [][]uint64
	errors    []uint64
	alive     []bool
	flows     map[[2]int][]uint64
}

func churnFingerprintOf(e *sim.Engine) churnFingerprint {
	fp := churnFingerprint{flows: make(map[[2]int][]uint64)}
	for _, est := range e.Estimates() {
		fp.estimates = append(fp.estimates, bitsOf(est))
	}
	fp.errors = bitsOf(e.Errors())
	o := e.Overlay()
	for i := 0; i < e.N(); i++ {
		fp.alive = append(fp.alive, e.Alive(i))
		fl, ok := e.Protocol(i).(gossip.Flows)
		if !ok {
			continue
		}
		for _, j32 := range o.Neighbors(i) {
			if f := fl.Flow(int(j32)); f.X != nil {
				fp.flows[[2]int{i, int(j32)}] = bitsOf(f.X)
			}
		}
	}
	return fp
}

func sameChurnFingerprint(t *testing.T, label string, want, got churnFingerprint) {
	t.Helper()
	if len(want.estimates) != len(got.estimates) {
		t.Fatalf("%s: node counts differ: %d vs %d", label, len(want.estimates), len(got.estimates))
	}
	for i := range want.estimates {
		if fmt.Sprint(want.estimates[i]) != fmt.Sprint(got.estimates[i]) {
			t.Fatalf("%s: node %d estimate bits differ", label, i)
		}
		if want.alive[i] != got.alive[i] {
			t.Fatalf("%s: node %d liveness differs", label, i)
		}
	}
	if fmt.Sprint(want.errors) != fmt.Sprint(got.errors) {
		t.Fatalf("%s: error bits differ", label)
	}
	if len(want.flows) != len(got.flows) {
		t.Fatalf("%s: flow edge counts differ: %d vs %d", label, len(want.flows), len(got.flows))
	}
	for k, w := range want.flows {
		if fmt.Sprint(w) != fmt.Sprint(got.flows[k]) {
			t.Fatalf("%s: flow %v bits differ", label, k)
		}
	}
}

// TestChurnShardByteIdentity proves the open-world paths preserve the
// phase-split determinism guarantee: the same churn schedule (including
// per-link loss) over P ∈ {1, 2, 8} shards produces bit-identical
// state.
func TestChurnShardByteIdentity(t *testing.T) {
	for _, tc := range allProtocols {
		for _, seed := range []int64{5, 17} {
			g := topology.Hypercube(4)
			inputs := churnInputs(g.N())
			opts := fault.ChurnOptions{Rounds: 60, Every: 6, Losses: 2}
			plan := fault.ChurnSchedule(g, opts, seed)

			build := func(shards int) *sim.Engine {
				e := sim.NewScalar(g, fuzzProtos(g.N(), tc.mk), inputs, gossip.Average, seed,
					sim.WithJoinFactory(tc.mk), sim.WithShards(shards))
				e.Run(sim.RunConfig{MaxRounds: 80, OnRound: plan.OnRound})
				e.Drain()
				return e
			}

			want := churnFingerprintOf(build(1))
			for _, p := range []int{2, 8} {
				got := churnFingerprintOf(build(p))
				sameChurnFingerprint(t, fmt.Sprintf("%s/seed=%d/P=%d", tc.name, seed, p), want, got)
			}
		}
	}
}

// TestJoinNodeValidation exercises every JoinNode precondition.
func TestJoinNodeValidation(t *testing.T) {
	mk := allProtocols[1].mk // pushflow
	build := func(opts ...sim.EngineOption) *sim.Engine {
		g := topology.Ring(6)
		return sim.NewScalar(g, fuzzProtos(6, mk), churnInputs(6), gossip.Average, 1, opts...)
	}
	mustPanic := func(label string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", label)
			}
		}()
		f()
	}
	mustPanic("no factory", func() { build().JoinNode(6, 1, []int{0}) })
	e := build(sim.WithJoinFactory(mk))
	mustPanic("sparse id", func() { e.JoinNode(8, 1, []int{0}) })
	mustPanic("no peers", func() { e.JoinNode(6, 1, nil) })
	mustPanic("non-finite value", func() { e.JoinNode(6, math.NaN(), []int{0}) })
	mustPanic("peer out of range", func() { e.JoinNode(6, 1, []int{9}) })
	e.CrashNode(2)
	mustPanic("dead peer", func() { e.JoinNode(6, 1, []int{2}) })
	e.JoinNode(6, 1.5, []int{0, 3})
	if !e.Alive(6) || e.N() != 7 {
		t.Fatalf("join failed: alive=%v n=%d", e.Alive(6), e.N())
	}
	if !e.Overlay().HasEdge(6, 0) || !e.Overlay().HasEdge(6, 3) {
		t.Fatal("join did not wire the requested edges")
	}
}

// TestLeaveNodeNoHeir covers the no-live-neighbor corner: the surplus
// (here, the node's whole current holding) is lost exactly as under a
// crash, and the leave itself must not panic.
func TestLeaveNodeNoHeir(t *testing.T) {
	mk := allProtocols[3].mk // pcf
	g := topology.Path(3)
	e := sim.NewScalar(g, fuzzProtos(3, mk), []float64{1, 2, 3}, gossip.Average, 1,
		sim.WithJoinFactory(mk))
	for r := 0; r < 10; r++ {
		e.Step()
	}
	e.CrashNode(0)
	e.CrashNode(2)
	e.LeaveNode(1)
	if e.Alive(1) {
		t.Fatal("leaver still alive")
	}
	e.LeaveNode(1) // idempotent no-op on a departed node
}

// TestRewireEdgeValidation exercises the RewireEdge preconditions and
// the post-state of a successful rewire.
func TestRewireEdgeValidation(t *testing.T) {
	mk := allProtocols[1].mk
	g := topology.Ring(8)
	e := sim.NewScalar(g, fuzzProtos(8, mk), churnInputs(8), gossip.Average, 1)
	mustPanic := func(label string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", label)
			}
		}()
		f()
	}
	mustPanic("missing edge", func() { e.RewireEdge(0, 4, 2) })
	mustPanic("self edge", func() { e.RewireEdge(0, 1, 0) })
	mustPanic("existing target", func() { e.RewireEdge(0, 1, 7) }) // (0,7) already a ring edge
	e.RewireEdge(0, 1, 4)
	o := e.Overlay()
	if o.HasEdge(0, 1) || !o.HasEdge(0, 4) {
		t.Fatalf("rewire state wrong: (0,1)=%v (0,4)=%v", o.HasEdge(0, 1), o.HasEdge(0, 4))
	}
}

// TestSetLinkLossValidation exercises the loss-table preconditions and
// the clearing path.
func TestSetLinkLossValidation(t *testing.T) {
	mk := allProtocols[0].mk
	g := topology.Ring(6)
	e := sim.NewScalar(g, fuzzProtos(6, mk), churnInputs(6), gossip.Average, 1)
	mustPanic := func(label string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", label)
			}
		}()
		f()
	}
	mustPanic("negative", func() { e.SetLinkLoss(0, 1, -0.1) })
	mustPanic("above one", func() { e.SetLinkLoss(0, 1, 1.5) })
	mustPanic("NaN", func() { e.SetLinkLoss(0, 1, math.NaN()) })
	e.SetLinkLoss(0, 1, 0.25)
	if got := e.LinkLossRate(1, 0); got != 0.25 {
		t.Fatalf("LinkLossRate = %v, want 0.25 (order-independent)", got)
	}
	e.SetLinkLoss(1, 0, 0)
	if got := e.LinkLossRate(0, 1); got != 0 {
		t.Fatalf("LinkLossRate after clear = %v, want 0", got)
	}
}

// TestLinkLossDeterministic proves per-link loss draws come from the
// engine's seeded stream: identical engines under the same loss table
// stay bitwise identical, and a different seed diverges.
func TestLinkLossDeterministic(t *testing.T) {
	mk := allProtocols[0].mk // pushsum: loss visibly changes its mass
	run := func(seed int64) []uint64 {
		g := topology.Hypercube(4)
		e := sim.NewScalar(g, fuzzProtos(g.N(), mk), churnInputs(g.N()), gossip.Average, seed)
		for _, edge := range g.Edges() {
			e.SetLinkLoss(edge[0], edge[1], 0.3)
		}
		for r := 0; r < 40; r++ {
			e.Step()
		}
		return bitsOf(e.Errors())
	}
	a, b, c := run(7), run(7), run(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different loss outcomes")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical loss outcomes (suspicious)")
	}
}

// TestChurnSnapshotRoundTrip proves a churned engine — mutated overlay,
// joined and departed nodes, a live loss table — snapshots and restores
// bitwise: the restored run continues identically to the uninterrupted
// one, including the remaining schedule.
func TestChurnSnapshotRoundTrip(t *testing.T) {
	const R, T = 40, 80
	for _, ai := range []int{1, 2, 4} { // pushflow, flowupdate, pcf-robust
		tc := allProtocols[ai]
		g := topology.Hypercube(4)
		inputs := churnInputs(g.N())
		opts := fault.ChurnOptions{Rounds: 70, Every: 6, Losses: 2}
		plan := fault.ChurnSchedule(g, opts, 21)
		build := func(seed int64) *sim.Engine {
			return sim.NewScalar(g, fuzzProtos(g.N(), tc.mk), inputs, gossip.Average, seed,
				sim.WithJoinFactory(tc.mk), sim.WithShards(2))
		}
		step := func(e *sim.Engine, rounds int) {
			for r := 0; r < rounds; r++ {
				plan.OnRound(e, e.Round())
				e.Step()
			}
		}

		ref := build(3)
		step(ref, T)
		want := churnFingerprintOf(ref)

		run := build(3)
		step(run, R)
		snap, err := run.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", tc.name, err)
		}
		restored := build(999) // seed must not matter: loss RNG comes from the snapshot
		if err := restored.Restore(snap); err != nil {
			t.Fatalf("%s: Restore: %v", tc.name, err)
		}
		step(restored, T-R)
		sameChurnFingerprint(t, tc.name, want, churnFingerprintOf(restored))
	}
}

// churnInputs mirrors the fixed-input idiom of the other black-box
// suites.
func churnInputs(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(5*i%13) + 0.5
	}
	return out
}
