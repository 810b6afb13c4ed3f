package fault

import (
	"strings"
	"testing"

	"pcfreduce/internal/topology"
)

// TestChurnScheduleAlwaysValid is the generator/validator handshake:
// every generated schedule, across seeds and topology families, must
// pass its own Validate — joins dense, leaves alive, rewires on real
// edges, the live floor respected.
func TestChurnScheduleAlwaysValid(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"ring":       topology.Ring(12),
		"hypercube":  topology.Hypercube(4),
		"torus":      topology.Torus2D(4, 5),
		"watts":      topology.WattsStrogatz(20, 4, 0.3, 9),
		"small-ring": topology.Ring(4), // the live floor bites immediately
	}
	for name, g := range graphs {
		for seed := int64(0); seed < 40; seed++ {
			opts := ChurnOptions{Rounds: 100, Every: 5, Losses: int(seed % 4)}
			plan := ChurnSchedule(g, opts, seed)
			if err := plan.Validate(g); err != nil {
				t.Fatalf("%s/seed=%d: generated schedule invalid: %v", name, seed, err)
			}
			for _, ev := range plan.Events() {
				if ev.Round < 0 || ev.Round >= opts.Rounds {
					t.Fatalf("%s/seed=%d: event at round %d outside horizon [0,%d)",
						name, seed, ev.Round, opts.Rounds)
				}
			}
		}
	}
}

// TestChurnScheduleRespectsMinLive replays each schedule's membership
// bookkeeping and checks the live floor is never crossed, and that the
// schedules do reach it.
func TestChurnScheduleRespectsMinLive(t *testing.T) {
	g := topology.Ring(6)
	floor := g.N()
	for seed := int64(0); seed < 20; seed++ {
		plan := ChurnSchedule(g, ChurnOptions{Rounds: 200, Every: 3}, seed)
		live := g.N()
		for _, ev := range plan.Events() {
			switch ev.Op {
			case OpNodeJoin:
				live++
			case OpNodeLeave:
				live--
			}
			if live < churnMinLive {
				t.Fatalf("seed=%d: live count %d dropped below the floor %d", seed, live, churnMinLive)
			}
			floor = min(floor, live)
		}
	}
	if floor != churnMinLive {
		t.Fatalf("lowest live count %d, want the floor %d", floor, churnMinLive)
	}
}

// TestValidateRejects feeds Validate one broken plan per membership
// failure mode and requires a descriptive error for each.
func TestValidateRejects(t *testing.T) {
	g := topology.Ring(6)
	cases := map[string]struct {
		plan *Plan
		want string
	}{
		"sparse join id":    {NewPlan(NodeJoin(1, 9, 1, 0)), "dense"},
		"peerless join":     {NewPlan(Event{Round: 1, Node: 6, A: -1, B: -1, Op: OpNodeJoin, Value: 1}), "peer"},
		"NaN join value":    {NewPlan(Event{Round: 1, Node: 6, A: -1, B: -1, Op: OpNodeJoin, Value: nan(), Peers: []int{0}}), "finite"},
		"dead join peer":    {NewPlan(NodeLeave(1, 2), NodeJoin(2, 6, 1, 2)), "dead"},
		"duplicate peer":    {NewPlan(NodeJoin(1, 6, 1, 0, 0)), "duplicated"},
		"double leave":      {NewPlan(NodeLeave(1, 3), NodeLeave(2, 3)), "dead"},
		"leave range":       {NewPlan(NodeLeave(1, 42)), "range"},
		"rewire no edge":    {NewPlan(EdgeRewire(1, 0, 3, 2)), "not in the"},
		"rewire self":       {NewPlan(EdgeRewire(1, 0, 1, 0)), "equals endpoint"},
		"rewire dup edge":   {NewPlan(EdgeRewire(1, 0, 1, 5)), "already"},
		"loss no edge":      {NewPlan(SetLinkLoss(1, 0, 3, 0.5)), "not in the"},
		"loss out of range": {NewPlan(SetLinkLoss(1, 0, 1, 1.5)), "[0,1]"},
		"crash then crash":  {NewPlan(NodeCrash(1, 2), NodeCrash(2, 2)), "dead"},
		"unknown op":        {NewPlan(Event{Round: 1, Op: Op(99)}), "unknown operation"},
		"no op":             {NewPlan(Event{Round: 1}), "unknown operation"},
	}
	for name, tc := range cases {
		err := tc.plan.Validate(g)
		if err == nil {
			t.Fatalf("%s: Validate accepted a broken plan", name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// TestValidateTracksChurnedTopology proves Validate checks later events
// against the *churned* topology, not the base graph: an edge created
// by a rewire is a legal loss target, and a joined node is a legal
// leave target.
func TestValidateTracksChurnedTopology(t *testing.T) {
	g := topology.Ring(6)
	good := NewPlan(
		EdgeRewire(1, 0, 1, 3),    // (0,1) → (0,3)
		SetLinkLoss(2, 0, 3, 0.2), // edge exists only post-rewire
		NodeJoin(3, 6, 1.5, 0, 2),
		NodeLeave(4, 6), // leaving the node that just joined
	)
	if err := good.Validate(g); err != nil {
		t.Fatalf("valid churned-topology plan rejected: %v", err)
	}
	bad := NewPlan(
		EdgeRewire(1, 0, 1, 3),
		SetLinkLoss(2, 0, 1, 0.2), // the rewired-away edge is gone
	)
	if bad.Validate(g) == nil {
		t.Fatal("loss on a rewired-away edge accepted")
	}
}

// TestLinkLossTable covers the loss table: order-normalized keys,
// clearing via zero, deterministic event rendering.
func TestLinkLossTable(t *testing.T) {
	l := make(LinkLoss)
	l.Set(3, 1, 0.25)
	if got := l.Rate(1, 3); got != 0.25 {
		t.Fatalf("Rate(1,3) = %v, want 0.25", got)
	}
	if got := l.Rate(3, 1); got != 0.25 {
		t.Fatalf("Rate(3,1) = %v, want 0.25 (order-normalized)", got)
	}
	l.Set(0, 2, 0.5)
	l.Set(1, 3, 0) // clears
	evs := l.Events(7)
	if len(evs) != 1 || evs[0].A != 0 || evs[0].B != 2 || evs[0].P != 0.5 || evs[0].Round != 7 {
		t.Fatalf("Events = %+v, want one SetLinkLoss(7, 0, 2, 0.5)", evs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set with p > 1 did not panic")
		}
	}()
	l.Set(0, 1, 1.5)
}

func nan() float64 {
	var zero float64
	return zero / zero
}
