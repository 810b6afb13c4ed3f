package core

import (
	"math"
	"testing"

	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// Fresh-value forms of FillMessage, EstimateInto and LocalValueInto.
func sendTo(p gossip.Protocol, target int) (m gossip.Message) { p.FillMessage(target, &m); return }
func estimateOf(p gossip.Protocol) []float64                  { return p.EstimateInto(nil) }
func localOf(p gossip.Protocol) (v gossip.Value)              { p.LocalValueInto(&v); return }

func protos(n int, v Variant) []gossip.Protocol {
	out := make([]gossip.Protocol, n)
	for i := range out {
		out[i] = New(v)
	}
	return out
}

func dyadicInputs(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((i*7)%16 + 1)
	}
	return out
}

func TestVariantString(t *testing.T) {
	if VariantEfficient.String() != "PCF-efficient" || VariantRobust.String() != "PCF-robust" {
		t.Fatal("variant names")
	}
	if Variant(9).String() != "PCF-unknown" {
		t.Fatal("unknown variant name")
	}
	if NewEfficient().Variant() != VariantEfficient || NewRobust().Variant() != VariantRobust {
		t.Fatal("constructors")
	}
}

// Hand-driven two-node exchange: the full cancellation handshake.
func TestCancellationHandshake(t *testing.T) {
	for _, variant := range []Variant{VariantEfficient, VariantRobust} {
		a, b := New(variant), New(variant)
		a.Reset(0, []int32{1}, gossip.Scalar(8, 1))
		b.Reset(1, []int32{0}, gossip.Scalar(0, 1))

		// Initially both sides agree on slot 1 (wire format) and r = 1.
		if c, r := a.RoleState(1); c != 1 || r != 1 {
			t.Fatalf("%v: initial role state (%d, %d)", variant, c, r)
		}

		// Several alternating exchanges: a→b, b→a, …
		for k := 0; k < 10; k++ {
			b.Receive(sendTo(a, 1))
			a.Receive(sendTo(b, 0))
		}
		// The handshake must have progressed: r well beyond 1.
		_, ra := a.RoleState(1)
		_, rb := b.RoleState(0)
		if ra < 3 || rb < 3 {
			t.Fatalf("%v: cancellation stalled (r = %d, %d)", variant, ra, rb)
		}
		// Estimates converge to the average 4.
		ea, eb := estimateOf(a)[0], estimateOf(b)[0]
		if math.Abs(ea-4) > 0.2 || math.Abs(eb-4) > 0.2 {
			t.Fatalf("%v: estimates %.3f %.3f not approaching 4", variant, ea, eb)
		}
	}
}

// PF and both PCF variants produce bit-identical local masses for
// identical schedules while the arithmetic is exact (dyadic inputs,
// ≤ 15 rounds) — the paper's Sec. III-B equivalence, checked across
// seeds and topologies.
func TestEquivalenceWithPushFlowExact(t *testing.T) {
	graphs := []*topology.Graph{
		topology.Hypercube(3),
		topology.Ring(9),
		topology.Torus2D(3, 3),
	}
	for _, g := range graphs {
		n := g.N()
		for seed := int64(0); seed < 10; seed++ {
			mk := func(p func() gossip.Protocol) *sim.Engine {
				ps := make([]gossip.Protocol, n)
				for i := range ps {
					ps[i] = p()
				}
				return sim.NewScalar(g, ps, dyadicInputs(n), gossip.Average, seed)
			}
			ePF := mk(func() gossip.Protocol { return pushflow.New() })
			eEff := mk(func() gossip.Protocol { return NewEfficient() })
			eRob := mk(func() gossip.Protocol { return NewRobust() })
			for r := 0; r < 15; r++ {
				ePF.Step()
				eEff.Step()
				eRob.Step()
				for i := 0; i < n; i++ {
					pf := localOf(ePF.Protocol(i))
					eff := localOf(eEff.Protocol(i))
					rob := localOf(eRob.Protocol(i))
					if !pf.Equal(eff) {
						t.Fatalf("%s seed %d round %d node %d: PF %v != PCF-efficient %v",
							g.Name(), seed, r+1, i, pf, eff)
					}
					if !pf.Equal(rob) {
						t.Fatalf("%s seed %d round %d node %d: PF %v != PCF-robust %v",
							g.Name(), seed, r+1, i, pf, rob)
					}
				}
			}
		}
	}
}

// The defining property (paper Sec. III): PCF's flow variables converge
// toward zero (they are periodically cancelled into ϕ), while PF's
// converge to arbitrary values that can exceed the aggregate by orders
// of magnitude.
func TestFlowsStaySmall(t *testing.T) {
	run := func(n int, mk func() gossip.Protocol) float64 {
		g := topology.Path(n)
		inputs := make([]float64, n)
		inputs[0] = float64(n + 1)
		for i := 1; i < n; i++ {
			inputs[i] = 1
		}
		ps := make([]gossip.Protocol, n)
		for i := range ps {
			ps[i] = mk()
		}
		e := sim.NewScalar(g, ps, inputs, gossip.Average, 5)
		e.Run(sim.RunConfig{MaxRounds: 3000 * n, Eps: 1e-13})
		e.Drain()
		worst := 0.0
		for i := 0; i < n-1; i++ {
			f := ps[i].(gossip.Flows).Flow(i + 1)
			if a := f.MaxAbs(); a > worst {
				worst = a
			}
		}
		return worst
	}
	mkPCF := func() gossip.Protocol { return NewEfficient() }
	mkPF := func() gossip.Protocol { return pushflow.New() }
	// The target average is 2 regardless of n; PF's converged flows
	// grow ~linearly with n while PCF's stay at the aggregate's order.
	pcf8, pcf32 := run(8, mkPCF), run(32, mkPCF)
	pf8, pf32 := run(8, mkPF), run(32, mkPF)
	if pcf32 > 8 {
		t.Fatalf("PCF flows at n=32 grew to %g (want order of the aggregate)", pcf32)
	}
	if pcf32 > 3*pcf8 {
		t.Fatalf("PCF flows grew with n: %g → %g", pcf8, pcf32)
	}
	if pf32 < 2*pf8 {
		t.Fatalf("PF flows should grow ~linearly with n: %g → %g", pf8, pf32)
	}
	if pf32 < 3*pcf32 {
		t.Fatalf("expected PF flows (%g) ≫ PCF flows (%g) at n=32", pf32, pcf32)
	}
}

// Link-failure absorb semantics: zeroing the slots must not move the
// local estimate at all (paper Fig. 7: no fall-back).
func TestOnLinkFailureKeepsEstimate(t *testing.T) {
	for _, variant := range []Variant{VariantEfficient, VariantRobust} {
		a, b := New(variant), New(variant)
		a.Reset(0, []int32{1, 2}, gossip.Scalar(8, 1))
		b.Reset(1, []int32{0}, gossip.Scalar(2, 1))
		for k := 0; k < 7; k++ {
			b.Receive(sendTo(a, 1))
			a.Receive(sendTo(b, 0))
		}
		beforeA, beforeB := localOf(a), localOf(b)
		a.OnLinkFailure(1)
		b.OnLinkFailure(0)
		if !localOf(a).Equal(beforeA) {
			t.Fatalf("%v: link failure moved node 0 estimate %v → %v",
				variant, beforeA, localOf(a))
		}
		if !localOf(b).Equal(beforeB) {
			t.Fatalf("%v: link failure moved node 1 estimate %v → %v",
				variant, beforeB, localOf(b))
		}
		if !a.Flow(1).IsZero() {
			t.Fatalf("%v: slots not zeroed", variant)
		}
		if len(a.LiveNeighbors()) != 1 || a.LiveNeighbors()[0] != 2 {
			t.Fatalf("%v: live neighbors %v", variant, a.LiveNeighbors())
		}
	}
}

// Global mass conservation through a mid-run link failure: with absorb
// semantics the books stay balanced no matter where in the handshake
// the failure strikes. Try every failure round in a window.
func TestMassConservedThroughLinkFailure(t *testing.T) {
	g := topology.Hypercube(3)
	n := g.N()
	want := 0.0
	for _, x := range dyadicInputs(n) {
		want += x
	}
	for failAt := 3; failAt < 30; failAt++ {
		e := sim.NewScalar(g, protos(n, VariantEfficient), dyadicInputs(n), gossip.Average, 77)
		for r := 0; r < failAt; r++ {
			e.Step()
		}
		e.FailLink(0, 1)
		for r := 0; r < 10; r++ {
			e.Step()
		}
		e.Drain()
		got := e.GlobalMass().X[0]
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("failAt=%d: mass %.15g, want %.15g", failAt, got, want)
		}
	}
}

func TestReceiveScreensCorruption(t *testing.T) {
	a := New(VariantEfficient)
	a.Reset(0, []int32{1}, gossip.Scalar(8, 1))
	before := localOf(a)
	phi := a.Phi()
	// NaN payload.
	a.Receive(gossip.Message{From: 1, To: 0,
		Flow1: gossip.Scalar(math.NaN(), 0), Flow2: gossip.Scalar(0, 0), C: 1, R: 1})
	// Corrupted control byte.
	a.Receive(gossip.Message{From: 1, To: 0,
		Flow1: gossip.Scalar(1, 0), Flow2: gossip.Scalar(0, 0), C: 7, R: 1})
	// Wrong width.
	a.Receive(gossip.Message{From: 1, To: 0,
		Flow1: gossip.NewValue(2), Flow2: gossip.NewValue(2), C: 1, R: 1})
	// Unknown sender.
	a.Receive(gossip.Message{From: 5, To: 0,
		Flow1: gossip.Scalar(1, 0), Flow2: gossip.Scalar(0, 0), C: 1, R: 1})
	if !localOf(a).Equal(before) || !a.Phi().Equal(phi) {
		t.Fatal("corrupted message mutated state")
	}
}

// The case (iii) equality guard: a corrupted nonzero passive payload
// arriving on a message whose r is legitimately one ahead (the peer has
// just cancelled, so its true passive is zero) must be ignored — the
// paper's r(i,j) ≤ r(j,i) guard would instead overwrite our half of a
// pair whose negation the peer already absorbed, permanently violating
// mass conservation. Only float payloads are corruptible in the fault
// model (integer header fields are checksum-protected in practice).
func TestCorruptedPassiveWithPeerAheadIgnored(t *testing.T) {
	a, b := New(VariantEfficient), New(VariantEfficient)
	a.Reset(0, []int32{1}, gossip.Scalar(8, 1))
	b.Reset(1, []int32{0}, gossip.Scalar(0, 1))
	for k := 0; k < 4; k++ {
		b.Receive(sendTo(a, 1))
		a.Receive(sendTo(b, 0))
	}
	// Craft the message an honest peer-one-ahead would send (same c,
	// r = ours+1, passive truly zero), then corrupt the passive floats.
	c, r := a.RoleState(1)
	msg := gossip.Message{
		From: 1, To: 0,
		Flow1: gossip.Scalar(0, 0),
		Flow2: gossip.Scalar(0, 0),
		C:     c,
		R:     r + 1,
	}
	passive := 1 - (c - 1)
	slot := [2]*gossip.Value{&msg.Flow1, &msg.Flow2}[passive]
	slot.Set(gossip.Scalar(123, 4)) // corrupted nonzero passive payload
	passiveBefore := passiveSlot(a, 1)
	a.Receive(msg)
	if !passiveSlot(a, 1).Equal(passiveBefore) {
		t.Fatalf("corrupted passive accepted: %v → %v", passiveBefore, passiveSlot(a, 1))
	}
}

// passiveSlot returns node n's passive flow slot toward the neighbor.
func passiveSlot(n *Node, neighbor int) gossip.Value {
	c, _ := n.RoleState(neighbor)
	f, _ := n.Slots(neighbor)
	return f[1-(c-1)]
}

func TestConvergesEverywhere(t *testing.T) {
	graphs := []*topology.Graph{
		topology.Ring(16),
		topology.Hypercube(5),
		topology.Torus3D(2, 2, 4),
		topology.Complete(9),
		topology.BinaryTree(15),
	}
	for _, variant := range []Variant{VariantEfficient, VariantRobust} {
		for _, g := range graphs {
			for _, agg := range []gossip.Aggregate{gossip.Sum, gossip.Average} {
				n := g.N()
				inputs := make([]float64, n)
				for i := range inputs {
					inputs[i] = float64(3*i%7) + 0.5
				}
				e := sim.NewScalar(g, protos(n, variant), inputs, agg, 13)
				res := e.Run(sim.RunConfig{MaxRounds: 30000, Eps: 1e-11})
				if !res.Converged {
					t.Errorf("%v/%s/%s: not converged (%.3e)", variant, g.Name(), agg, e.MaxError())
				}
			}
		}
	}
}

// PCF heals sustained message loss just like PF.
func TestHealsMessageLoss(t *testing.T) {
	g := topology.Hypercube(4)
	e := sim.NewScalar(g, protos(16, VariantRobust), dyadicInputs(16), gossip.Average, 4)
	drops := 0
	e.SetInterceptor(sim.InterceptorFunc(func(round int, msg *gossip.Message) bool {
		drops++
		return drops%5 != 0 // lose every 5th message forever
	}))
	res := e.Run(sim.RunConfig{MaxRounds: 8000, Eps: 1e-12})
	if !res.Converged {
		t.Fatalf("did not converge under 20%% sustained loss: %.3e", e.MaxError())
	}
}

// Duplicated (stale, redelivered-once) messages must not break
// convergence: the fault.Duplicate model replaces the next message on
// an edge with a stale clone of a previous one, i.e. out-of-order
// redelivery, which the idempotent flow exchange absorbs.
func TestHealsDuplication(t *testing.T) {
	g := topology.Hypercube(4)
	for _, variant := range []Variant{VariantEfficient, VariantRobust} {
		e := sim.NewScalar(g, protos(16, variant), dyadicInputs(16), gossip.Average, 4)
		e.SetInterceptor(fault.NewDuplicate(0.15, 99))
		res := e.Run(sim.RunConfig{MaxRounds: 8000, Eps: 1e-12})
		if !res.Converged {
			t.Fatalf("%v: did not converge under duplication: %.3e", variant, e.MaxError())
		}
	}
}

// Reordered (non-FIFO) delivery: the paper's (c, r) handshake assumes
// FIFO links; the implementation's hard-resync path must keep the edge
// from wedging and the reduction converging.
func TestHealsReordering(t *testing.T) {
	g := topology.Hypercube(4)
	for _, variant := range []Variant{VariantEfficient, VariantRobust} {
		e := sim.NewScalar(g, protos(16, variant), dyadicInputs(16), gossip.Average, 4)
		rd := fault.NewReorder(0.15, 99)
		e.SetInterceptor(rd)
		res := e.Run(sim.RunConfig{MaxRounds: 8000, Eps: 1e-12})
		if rd.Swaps == 0 {
			t.Fatal("no swaps happened — test is vacuous")
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge under reordering: %.3e", variant, e.MaxError())
		}
	}
}

// The headline accuracy claim (paper Figs. 3 vs 6): at 512 nodes PCF's
// accuracy floor beats PF's and reaches near machine precision.
func TestAccuracyBeatsPushFlowAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy scaling is slow")
	}
	g := topology.Hypercube(9)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i%97)/97 + 0.01
	}
	floor := func(ps []gossip.Protocol) float64 {
		e := sim.NewScalar(g, ps, inputs, gossip.Average, 31)
		res := e.Run(sim.RunConfig{MaxRounds: 5000, StallRounds: 80})
		return res.BestMax
	}
	pfPs := make([]gossip.Protocol, n)
	for i := range pfPs {
		pfPs[i] = pushflow.New()
	}
	pf := floor(pfPs)
	pcf := floor(protos(n, VariantEfficient))
	if pcf > 1e-14 {
		t.Fatalf("PCF floor %.3e misses near-machine precision", pcf)
	}
	if pcf >= pf {
		t.Fatalf("PCF floor %.3e not better than PF floor %.3e", pcf, pf)
	}
}

func TestSendToNonNeighborPanics(t *testing.T) {
	a := New(VariantEfficient)
	a.Reset(0, []int32{1}, gossip.Scalar(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("must panic")
		}
	}()
	sendTo(a, 9)
}

func TestAccessors(t *testing.T) {
	a := New(VariantEfficient)
	a.Reset(0, []int32{1}, gossip.Scalar(8, 1))
	if !a.Phi().IsZero() {
		t.Fatal("initial ϕ must be zero")
	}
	sendTo(a, 1)
	if a.Phi().IsZero() {
		t.Fatal("efficient ϕ must track the virtual send")
	}
	if c, r := a.RoleState(9); c != 0 || r != 0 {
		t.Fatal("unknown neighbor role state")
	}
	if !a.Flow(9).IsZero() {
		t.Fatal("unknown neighbor flow")
	}
}

func TestResetReuse(t *testing.T) {
	a := New(VariantRobust)
	a.Reset(0, []int32{1}, gossip.Scalar(8, 1))
	sendTo(a, 1)
	a.OnLinkFailure(1)
	a.Reset(5, []int32{6, 7}, gossip.Scalar(3, 1))
	if lv := localOf(a); lv.X[0] != 3 || lv.W != 1 {
		t.Fatalf("after Reset: %v", lv)
	}
	if len(a.LiveNeighbors()) != 2 {
		t.Fatal("neighbors after Reset")
	}
	if !a.Phi().IsZero() {
		t.Fatal("ϕ after Reset")
	}

	// Resetting over the same neighborhood and width reuses the node's
	// storage — dmGS and eigen restart every reduction through
	// ResetWithInputs on this path — on both sides of the id-map cutoff
	// and after an eviction allocated the edge snapshots.
	for _, deg := range []int{2, mapCutoff + 8} {
		nbrs := make([]int32, deg)
		for k := range nbrs {
			nbrs[k] = int32(k + 1)
		}
		init := gossip.Vector([]float64{3, 0.25}, 1)
		a.Reset(0, nbrs, init)
		sendTo(a, 1)
		a.OnLinkFailure(2)
		if allocs := testing.AllocsPerRun(20, func() { a.Reset(0, nbrs, init) }); allocs != 0 {
			t.Fatalf("degree %d: Reset over the same neighborhood allocates %v times", deg, allocs)
		}
		if len(a.LiveNeighbors()) != deg || !a.Phi().IsZero() || !a.Flow(1).IsZero() {
			t.Fatalf("degree %d: in-place Reset left state behind", deg)
		}
		if c, r := a.RoleState(2); c != 1 || r != 1 {
			t.Fatalf("degree %d: in-place Reset left role state (%d, %d)", deg, c, r)
		}
	}
}

// star returns a hub with the given number of spoke neighbors (ids
// 1..deg) and the spokes, after a few exchange rounds so every edge
// carries nonzero slots and advanced handshake state.
func star(v Variant, deg int) (*Node, []*Node) {
	hub := New(v)
	nbrs := make([]int32, deg)
	for k := range nbrs {
		nbrs[k] = int32(k + 1)
	}
	hub.Reset(0, nbrs, gossip.Vector([]float64{1.0 / 3, 0.1, 7}, 1))
	spokes := make([]*Node, deg+1)
	for j := 1; j <= deg; j++ {
		spokes[j] = New(v)
		spokes[j].Reset(j, []int32{0}, gossip.Vector([]float64{float64(j) / 7, 0.3, -1}, 1))
	}
	for round := 0; round < 5; round++ {
		for j := 1; j <= deg; j++ {
			spokes[j].Receive(sendTo(hub, j))
			hub.Receive(sendTo(spokes[j], 0))
		}
	}
	return hub, spokes
}

func sameBits(a, b gossip.Value) bool {
	if len(a.X) != len(b.X) || math.Float64bits(a.W) != math.Float64bits(b.W) {
		return false
	}
	for i, x := range a.X {
		if math.Float64bits(x) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}

// mapCutoff is the neighborhood size above which the edge store looks
// edges up through its id map instead of a linear scan.
const mapCutoff = 32

// TestNeighborJoinCrossesMapCutoff grows a node from mapCutoff to
// mapCutoff+2 neighbors, the point where edge lookup switches from
// the linear scan to the id map: every existing edge must stay
// reachable with its slots, role state and frozen eviction snapshot
// intact, and the new edges must start clean and work.
func TestNeighborJoinCrossesMapCutoff(t *testing.T) {
	for _, v := range []Variant{VariantEfficient, VariantRobust} {
		hub, _ := star(v, mapCutoff)
		hub.OnLinkFailure(5)
		type edge struct {
			f    [2]gossip.Value
			c    uint8
			r    uint64
			snap *edgeSnapshot
		}
		before := map[int]edge{}
		for j := 1; j <= mapCutoff; j++ {
			f, _ := hub.Slots(j)
			c, r := hub.RoleState(j)
			before[j] = edge{f, c, r, hub.savedEdge(hub.e.Edge(j))}
		}
		phi, mass := hub.Phi(), localOf(hub)

		for _, id := range []int{100, 101} {
			hub.OnNeighborJoin(id)
		}
		for j, e := range before {
			f, ok := hub.Slots(j)
			c, r := hub.RoleState(j)
			if !ok || !sameBits(f[0], e.f[0]) || !sameBits(f[1], e.f[1]) || c != e.c || r != e.r {
				t.Fatalf("%v: edge to %d changed by the join", v, j)
			}
			if hub.savedEdge(hub.e.Edge(j)) != e.snap {
				t.Fatalf("%v: eviction snapshot of edge to %d changed by the join", v, j)
			}
		}
		if !sameBits(hub.Phi(), phi) || !sameBits(localOf(hub), mass) {
			t.Fatalf("%v: join moved ϕ or the local mass", v)
		}
		for _, id := range []int{100, 101} {
			f, ok := hub.Slots(id)
			if c, r := hub.RoleState(id); !ok || !f[0].IsZero() || !f[1].IsZero() || c != 1 || r != 1 {
				t.Fatalf("%v: joined edge to %d does not start clean", v, id)
			}
		}
		if got := len(hub.LiveNeighbors()); got != mapCutoff+1 {
			t.Fatalf("%v: %d live neighbors, want %d", v, got, mapCutoff+1)
		}

		hub.OnLinkRecover(5)
		if f, _ := hub.Slots(5); !sameBits(f[0], before[5].snap.f[0]) || !sameBits(f[1], before[5].snap.f[1]) {
			t.Fatalf("%v: recovery after the join did not reinstate the frozen edge", v)
		}
		msg := sendTo(hub, 101)
		if msg.Flow1.IsZero() && msg.Flow2.IsZero() {
			t.Fatalf("%v: send on the joined edge carried no flow", v)
		}
	}
}

// TestRobustLocalMatchesSlotSum pins the robust variant's local mass
// against a reference v − ϕ − Σ f built from one Value subtraction per
// slot in edge order, bit for bit, at a width where summation order
// shows.
func TestRobustLocalMatchesSlotSum(t *testing.T) {
	hub, _ := star(VariantRobust, 6)
	want := hub.init.Clone()
	want.SubInPlace(hub.phi)
	for j := 1; j <= 6; j++ {
		f, _ := hub.Slots(j)
		want.SubInPlace(f[0])
		want.SubInPlace(f[1])
	}
	if want.IsZero() || hub.Flow(3).IsZero() {
		t.Fatal("reference is trivial — the test exercises nothing")
	}
	if got := localOf(hub); !sameBits(got, want) {
		t.Fatalf("local mass %v, reference %v", got, want)
	}
}

// Eviction followed by reintegration: a one-sided false suspicion zeroes
// the edge on one endpoint only; after OnLinkRecover the hard-resync path
// restores flow antisymmetry from the peer's first message and the pair
// re-converges with mass conserved.
func TestEvictReintegrateConservesMass(t *testing.T) {
	for _, variant := range []Variant{VariantEfficient, VariantRobust} {
		a, b := New(variant), New(variant)
		a.Reset(0, []int32{1}, gossip.Scalar(8, 1))
		b.Reset(1, []int32{0}, gossip.Scalar(0, 1))
		for k := 0; k < 6; k++ {
			b.Receive(sendTo(a, 1))
			a.Receive(sendTo(b, 0))
		}

		// a falsely suspects b: one-sided eviction. The absorb semantics
		// keep a's estimate unchanged.
		before := estimateOf(a)[0]
		a.OnLinkFailure(1)
		if after := estimateOf(a)[0]; math.Abs(after-before) > 1e-15 {
			t.Fatalf("%v: eviction moved the estimate %.17g -> %.17g", variant, before, after)
		}
		if len(a.LiveNeighbors()) != 0 {
			t.Fatalf("%v: evicted neighbor still live", variant)
		}

		// Suspicion clears; the edge restarts clean, then the peer's
		// next message (whose r is ahead of the reset r=1) hard-resyncs.
		a.OnLinkRecover(1)
		a.OnLinkRecover(1) // idempotent
		if len(a.LiveNeighbors()) != 1 {
			t.Fatalf("%v: reintegrated neighbor not live", variant)
		}
		for k := 0; k < 40; k++ {
			a.Receive(sendTo(b, 0))
			b.Receive(sendTo(a, 1))
		}
		ea, eb := estimateOf(a)[0], estimateOf(b)[0]
		if math.Abs(ea-4) > 1e-9 || math.Abs(eb-4) > 1e-9 {
			t.Fatalf("%v: estimates %.12f %.12f after reintegration, want 4", variant, ea, eb)
		}
		ma, mb := localOf(a), localOf(b)
		if total := ma.X[0] + mb.X[0]; math.Abs(total-8) > 1e-12 {
			t.Fatalf("%v: mass not conserved after evict/reintegrate: %.15f", variant, total)
		}
	}
}

// Symmetric eviction (both endpoints suspect each other, e.g. during a
// transient outage of the link) followed by symmetric reintegration: both
// edges restart clean and the pair re-converges.
func TestSymmetricEvictReintegrate(t *testing.T) {
	for _, variant := range []Variant{VariantEfficient, VariantRobust} {
		a, b := New(variant), New(variant)
		a.Reset(0, []int32{1}, gossip.Scalar(8, 1))
		b.Reset(1, []int32{0}, gossip.Scalar(0, 1))
		for k := 0; k < 6; k++ {
			b.Receive(sendTo(a, 1))
			a.Receive(sendTo(b, 0))
		}
		a.OnLinkFailure(1)
		b.OnLinkFailure(0)
		a.OnLinkRecover(1)
		b.OnLinkRecover(0)
		for k := 0; k < 40; k++ {
			b.Receive(sendTo(a, 1))
			a.Receive(sendTo(b, 0))
		}
		ea, eb := estimateOf(a)[0], estimateOf(b)[0]
		if math.Abs(ea-4) > 1e-6 || math.Abs(eb-4) > 1e-6 {
			t.Fatalf("%v: estimates %.9f %.9f after symmetric reintegration", variant, ea, eb)
		}
	}
}
