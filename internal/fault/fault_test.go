package fault

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"pcfreduce/internal/gossip"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

func mkMsg() gossip.Message {
	return gossip.Message{
		From: 0, To: 1,
		Flow1: gossip.Vector([]float64{1.5, -2.5}, 0.5),
		Flow2: gossip.Vector([]float64{3, 4}, 1),
	}
}

func TestLossRate(t *testing.T) {
	l := NewLoss(0.3, 1)
	kept := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		m := mkMsg()
		if l.Intercept(0, &m) {
			kept++
		}
	}
	frac := float64(kept) / trials
	if math.Abs(frac-0.7) > 0.02 {
		t.Fatalf("kept fraction %.3f, want ≈ 0.7", frac)
	}
}

func TestLossExtremes(t *testing.T) {
	never := NewLoss(0, 1)
	always := NewLoss(1, 1)
	for i := 0; i < 100; i++ {
		m := mkMsg()
		if !never.Intercept(0, &m) {
			t.Fatal("p=0 dropped a message")
		}
		if always.Intercept(0, &m) {
			t.Fatal("p=1 passed a message")
		}
	}
}

func TestLossValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid probability must panic")
		}
	}()
	NewLoss(1.5, 1)
}

func TestBitFlipFlipsExactlyOneBit(t *testing.T) {
	b := NewBitFlip(1, 7)
	for i := 0; i < 500; i++ {
		m := mkMsg()
		orig := m.Clone()
		if !b.Intercept(0, &m) {
			t.Fatal("bit flip must not drop")
		}
		diffs := 0
		for _, pair := range [][2]gossip.Value{{m.Flow1, orig.Flow1}, {m.Flow2, orig.Flow2}} {
			for k := range pair[0].X {
				diffs += popcount(pair[0].X[k], pair[1].X[k])
			}
			diffs += popcount(pair[0].W, pair[1].W)
		}
		if diffs != 1 {
			t.Fatalf("trial %d: %d bits differ, want exactly 1", i, diffs)
		}
	}
	if b.Flips != 500 {
		t.Fatalf("Flips = %d", b.Flips)
	}
}

func TestBoundedBitFlipStaysBounded(t *testing.T) {
	b := NewBoundedBitFlip(1, 7)
	for i := 0; i < 2000; i++ {
		m := mkMsg()
		orig := m.Clone()
		b.Intercept(0, &m)
		// Mantissa/sign flips change magnitude by at most 2x and never
		// produce NaN/Inf from finite input.
		if !m.Flow1.Finite() || !m.Flow2.Finite() {
			t.Fatal("bounded flip produced non-finite value")
		}
		check := func(got, was float64) {
			ag, aw := math.Abs(got), math.Abs(was)
			if ag > 2*aw+1e-300 {
				t.Fatalf("bounded flip scaled %g → %g", was, got)
			}
		}
		for k := range m.Flow1.X {
			check(m.Flow1.X[k], orig.Flow1.X[k])
		}
		check(m.Flow1.W, orig.Flow1.W)
	}
}

func popcount(a, b float64) int {
	x := math.Float64bits(a) ^ math.Float64bits(b)
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestDuplicateDelivers(t *testing.T) {
	d := NewDuplicate(1, 3)
	m := mkMsg()
	if !d.Intercept(0, &m) {
		t.Fatal("duplicate must not drop")
	}
	if d.Copies(0, &m) != 2 {
		t.Fatal("p=1 must duplicate")
	}
	none := NewDuplicate(0, 3)
	if none.Copies(0, &m) != 1 {
		t.Fatal("p=0 must not duplicate")
	}
}

func TestReorderSwapsAdjacent(t *testing.T) {
	r := NewReorder(1, 5) // always hold
	m1 := mkMsg()
	m1.Flow1.X[0] = 111
	if r.Intercept(0, &m1) {
		t.Fatal("first message must be held")
	}
	m2 := mkMsg()
	m2.Flow1.X[0] = 222
	if !r.Intercept(0, &m2) {
		t.Fatal("second message must pass")
	}
	if m2.Flow1.X[0] != 222 {
		t.Fatal("second message content must be untouched")
	}
	extra := r.Extra(0)
	if len(extra) != 1 || extra[0].Flow1.X[0] != 111 {
		t.Fatalf("held message not released: %v", extra)
	}
	if r.Swaps != 1 {
		t.Fatalf("Swaps = %d", r.Swaps)
	}
	if len(r.Extra(0)) != 0 {
		t.Fatal("Extra must drain")
	}
}

func TestReorderDistinguishesLinks(t *testing.T) {
	r := NewReorder(1, 5)
	m1 := mkMsg() // link 0→1: held
	r.Intercept(0, &m1)
	other := mkMsg()
	other.To = 2 // different link: held separately, not swapped
	if r.Intercept(0, &other) {
		t.Fatal("message on a different link must be held, not swapped with 0→1")
	}
	if r.Swaps != 0 {
		t.Fatal("cross-link swap happened")
	}
}

func TestWindow(t *testing.T) {
	dropAll := sim.InterceptorFunc(func(int, *gossip.Message) bool { return false })
	w := Window(dropAll, 10, 20)
	m := mkMsg()
	if !w.Intercept(5, &m) {
		t.Fatal("before window must pass")
	}
	if w.Intercept(10, &m) || w.Intercept(19, &m) {
		t.Fatal("inside window must apply")
	}
	if !w.Intercept(20, &m) {
		t.Fatal("after window must pass")
	}
}

func TestCompose(t *testing.T) {
	calls := 0
	count := sim.InterceptorFunc(func(int, *gossip.Message) bool { calls++; return true })
	dropEven := sim.InterceptorFunc(func(round int, _ *gossip.Message) bool { return round%2 != 0 })
	c := Compose(count, nil, dropEven, count)
	m := mkMsg()
	if c.Intercept(2, &m) {
		t.Fatal("even round must drop")
	}
	if calls != 1 {
		t.Fatalf("short-circuit failed: %d calls", calls)
	}
	if !c.Intercept(3, &m) {
		t.Fatal("odd round must pass")
	}
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestPlanFiresEvents(t *testing.T) {
	g := topology.Path(4)
	protos := make([]gossip.Protocol, 4)
	for i := range protos {
		protos[i] = pushflow.New()
	}
	e := sim.NewScalar(g, protos, []float64{1, 2, 3, 4}, gossip.Average, 1)
	plan := NewPlan(
		LinkFailure(2, 2, 3),
		NodeCrash(4, 0),
	)
	e.Run(sim.RunConfig{MaxRounds: 6, OnRound: plan.OnRound})
	if e.Alive(0) {
		t.Fatal("node 0 should have crashed")
	}
	if live := protos[2].LiveNeighbors(); len(live) != 1 || live[0] != 1 {
		t.Fatalf("node 2 live neighbors = %v (link to 3 should be dead)", live)
	}
}

func TestAbruptLinkFailureEvent(t *testing.T) {
	ev := AbruptLinkFailure(5, 1, 2)
	if ev.Op != OpLinkFailAbrupt || ev.Node != -1 || ev.Round != 5 {
		t.Fatalf("event = %+v", ev)
	}
	qe := LinkFailure(5, 1, 2)
	if qe.Op != OpLinkFail {
		t.Fatalf("quiescent event op = %v", qe.Op)
	}
}

// Statistical sanity for the bounded flipper: sign flips occur (≈1/53 of
// flips) and magnitudes stay scaled.
func TestBoundedBitFlipHitsSignBit(t *testing.T) {
	b := NewBoundedBitFlip(1, 11)
	signFlips := 0
	for i := 0; i < 5000; i++ {
		m := mkMsg()
		b.Intercept(0, &m)
		if m.Flow1.X[0] < 0 != (mkMsg().Flow1.X[0] < 0) && math.Abs(m.Flow1.X[0]) == math.Abs(mkMsg().Flow1.X[0]) {
			signFlips++
		}
	}
	if signFlips == 0 {
		t.Fatal("sign bit never flipped in 5000 trials")
	}
}

// The oracle-free events route through the engine's silent-injection
// APIs: nothing is notified, only state changes the detector could later
// observe.
func TestPlanFiresSilentEvents(t *testing.T) {
	g := topology.Path(4)
	protos := make([]gossip.Protocol, 4)
	for i := range protos {
		protos[i] = pushflow.New()
	}
	e := sim.NewScalar(g, protos, []float64{1, 2, 3, 4}, gossip.Average, 1)
	plan := NewPlan(SilentNodeCrash(2, 0)).
		Add(LinkOutage(1, 4, 2, 3)...).
		Add(NodeOutage(1, 5, 1)...)
	e.Run(sim.RunConfig{MaxRounds: 8, OnRound: plan.OnRound})
	if e.Alive(0) {
		t.Fatal("node 0 should have crashed silently")
	}
	// Silent events never notify: every protocol keeps its full neighbor
	// list (contrast TestPlanFiresEvents, where FailLink prunes it).
	for i := 1; i < 4; i++ {
		if len(protos[i].LiveNeighbors()) != len(g.Neighbors(i)) {
			t.Fatalf("node %d was notified of a silent failure: %v", i, protos[i].LiveNeighbors())
		}
	}
}

// recorder is a Runner that logs the operations applied to it.
type recorder struct{ ops []string }

func (r *recorder) FailLink(i, j int)     { r.ops = append(r.ops, fmt.Sprintf("fail %d-%d", i, j)) }
func (r *recorder) CrashNode(i int)       { r.ops = append(r.ops, fmt.Sprintf("crash %d", i)) }
func (r *recorder) SilenceLink(i, j int)  { r.ops = append(r.ops, fmt.Sprintf("silence %d-%d", i, j)) }
func (r *recorder) RestoreLink(i, j int)  { r.ops = append(r.ops, fmt.Sprintf("restore %d-%d", i, j)) }
func (r *recorder) CrashNodeSilent(i int) { r.ops = append(r.ops, fmt.Sprintf("scrash %d", i)) }
func (r *recorder) HangNode(i int)        { r.ops = append(r.ops, fmt.Sprintf("hang %d", i)) }
func (r *recorder) ResumeNode(i int)      { r.ops = append(r.ops, fmt.Sprintf("resume %d", i)) }
func (r *recorder) CheckpointNode(i int)  { r.ops = append(r.ops, fmt.Sprintf("ckpt %d", i)) }
func (r *recorder) RestartNode(i int)     { r.ops = append(r.ops, fmt.Sprintf("restart %d", i)) }
func (r *recorder) JoinNode(id int, value float64, peers []int) {
	r.ops = append(r.ops, fmt.Sprintf("join %d v=%g peers=%v", id, value, peers))
}
func (r *recorder) LeaveNode(i int) { r.ops = append(r.ops, fmt.Sprintf("leave %d", i)) }
func (r *recorder) RewireEdge(a, b, c int) {
	r.ops = append(r.ops, fmt.Sprintf("rewire %d-%d>%d", a, b, c))
}
func (r *recorder) SetLinkLoss(a, b int, p float64) {
	r.ops = append(r.ops, fmt.Sprintf("loss %d-%d=%g", a, b, p))
}

// Both engines satisfy the Runner surface (runtime.Network is asserted
// in the runtime package to keep import directions clean).
var _ Runner = (*sim.Engine)(nil)

// RunOn replays events in Round order on the tick clock, regardless of
// schedule order, and honors cancellation.
func TestPlanRunOn(t *testing.T) {
	plan := NewPlan(
		NodeCrash(3, 7),
		SilentLinkFailure(1, 0, 1),
		LinkRestore(2, 0, 1),
		LinkFailure(0, 4, 5),
	)
	rec := &recorder{}
	if err := plan.RunOn(context.Background(), rec, 100*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	want := []string{"fail 4-5", "silence 0-1", "restore 0-1", "crash 7"}
	if len(rec.ops) != len(want) {
		t.Fatalf("ops = %v, want %v", rec.ops, want)
	}
	for i := range want {
		if rec.ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", rec.ops, want)
		}
	}
}

func TestPlanRunOnCancellation(t *testing.T) {
	plan := NewPlan(NodeCrash(1000000, 0)) // far in the future
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- plan.RunOn(ctx, &recorder{}, time.Millisecond) }()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled RunOn returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunOn did not return after cancellation")
	}
}
