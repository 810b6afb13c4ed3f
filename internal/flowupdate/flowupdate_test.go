package flowupdate

import (
	"math"
	"testing"

	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// Fresh-value forms of FillMessage, EstimateInto and LocalValueInto.
func sendTo(p gossip.Protocol, target int) (m gossip.Message) { p.FillMessage(target, &m); return }
func localOf(p gossip.Protocol) (v gossip.Value)              { p.LocalValueInto(&v); return }

func protos(n int) []gossip.Protocol {
	out := make([]gossip.Protocol, n)
	for i := range out {
		out[i] = New()
	}
	return out
}

func inputs(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i%13) + 0.5
	}
	return out
}

func TestFirstContactSharesEstimateWithoutMass(t *testing.T) {
	a := New()
	a.Reset(0, []int32{1}, gossip.Scalar(6, 1))
	msg := sendTo(a, 1)
	// Before hearing from the neighbor, no flow mass moves; the message
	// carries the current (zero) flow and the local estimate.
	if !msg.Flow1.IsZero() {
		t.Fatalf("first-contact flow = %v, want zero", msg.Flow1)
	}
	if msg.Flow2.X[0] != 6 || msg.Flow2.W != 1 {
		t.Fatalf("first-contact estimate = %v", msg.Flow2)
	}
	if localOf(a).X[0] != 6 {
		t.Fatal("first contact moved mass")
	}
}

func TestFlowAdjustsTowardAverage(t *testing.T) {
	a, b := New(), New()
	a.Reset(0, []int32{1}, gossip.Scalar(6, 1))
	b.Reset(1, []int32{0}, gossip.Scalar(0, 1))
	b.Receive(sendTo(a, 1)) // b learns a's estimate (6)
	msgBA := sendTo(b, 0)   // b averages {0, 6} → 3, flow moves a to 3
	a.Receive(msgBA)
	// a's local value must now be b's computed average.
	if got := localOf(a).X[0]; math.Abs(got-3) > 1e-12 {
		t.Fatalf("a's value after FU exchange = %g, want 3", got)
	}
}

func TestConverges(t *testing.T) {
	graphs := []*topology.Graph{
		topology.Ring(12),
		topology.Hypercube(5),
		topology.Grid2D(4, 4),
	}
	for _, g := range graphs {
		for _, agg := range []gossip.Aggregate{gossip.Sum, gossip.Average} {
			e := sim.NewScalar(g, protos(g.N()), inputs(g.N()), agg, 3)
			res := e.Run(sim.RunConfig{MaxRounds: 30000, Eps: 1e-10})
			if !res.Converged {
				t.Errorf("%s/%s not converged: %.3e", g.Name(), agg, e.MaxError())
			}
		}
	}
}

// Flow Updating's selling point: it tolerates message loss.
func TestHealsMessageLoss(t *testing.T) {
	g := topology.Hypercube(4)
	e := sim.NewScalar(g, protos(16), inputs(16), gossip.Average, 7)
	e.SetInterceptor(fault.NewLoss(0.15, 42))
	res := e.Run(sim.RunConfig{MaxRounds: 30000, Eps: 1e-10})
	if !res.Converged {
		t.Fatalf("FU did not heal 15%% loss: %.3e", e.MaxError())
	}
}

func TestLinkFailureRecovery(t *testing.T) {
	g := topology.Hypercube(4)
	e := sim.NewScalar(g, protos(16), inputs(16), gossip.Average, 7)
	e.Run(sim.RunConfig{MaxRounds: 200})
	e.FailLink(0, 1)
	res := e.Run(sim.RunConfig{MaxRounds: 30000, Eps: 1e-10})
	if !res.Converged {
		t.Fatalf("FU did not recover from link failure: %.3e", e.MaxError())
	}
}

func TestReceiveScreensCorruption(t *testing.T) {
	a := New()
	a.Reset(0, []int32{1}, gossip.Scalar(6, 1))
	before := localOf(a)
	a.Receive(gossip.Message{From: 1, To: 0,
		Flow1: gossip.Scalar(math.NaN(), 0), Flow2: gossip.Scalar(0, 0)})
	a.Receive(gossip.Message{From: 1, To: 0,
		Flow1: gossip.Scalar(0, 0), Flow2: gossip.Scalar(math.Inf(1), 0)})
	a.Receive(gossip.Message{From: 7, To: 0,
		Flow1: gossip.Scalar(0, 0), Flow2: gossip.Scalar(0, 0)})
	if !localOf(a).Equal(before) {
		t.Fatal("corrupted/unknown message mutated state")
	}
}

func TestOnLinkFailureForgets(t *testing.T) {
	a := New()
	a.Reset(0, []int32{1, 2}, gossip.Scalar(6, 1))
	a.Receive(gossip.Message{From: 1, To: 0,
		Flow1: gossip.Scalar(-1, 0), Flow2: gossip.Scalar(4, 1)})
	a.OnLinkFailure(1)
	if !a.Flow(1).IsZero() {
		t.Fatal("flow not zeroed")
	}
	if live := a.LiveNeighbors(); len(live) != 1 || live[0] != 2 {
		t.Fatalf("live = %v", live)
	}
	// Zeroing the flow reclaimed the transferred mass (local back to 6),
	// and the forgotten neighbor's estimate must not influence
	// averaging: a's next message to 2 averages only a's own estimate.
	msg := sendTo(a, 2)
	if got := msg.Flow2.X[0]; math.Abs(got-6) > 1e-12 {
		t.Fatalf("average after forget = %g, want own estimate 6", got)
	}
}

func TestResetReuse(t *testing.T) {
	a := New()
	a.Reset(0, []int32{1}, gossip.Scalar(6, 1))
	a.Receive(gossip.Message{From: 1, To: 0,
		Flow1: gossip.Scalar(-1, 0), Flow2: gossip.Scalar(4, 1)})
	a.Reset(2, []int32{3}, gossip.Scalar(9, 1))
	if lv := localOf(a); lv.X[0] != 9 {
		t.Fatalf("after Reset: %v", lv)
	}
	if !a.Flow(3).IsZero() {
		t.Fatal("flows after Reset")
	}
}
