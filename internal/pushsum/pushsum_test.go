package pushsum

import (
	"math"
	"testing"

	"pcfreduce/internal/gossip"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// Fresh-value forms of FillMessage, EstimateInto and LocalValueInto.
func sendTo(p gossip.Protocol, target int) (m gossip.Message) { p.FillMessage(target, &m); return }
func estimateOf(p gossip.Protocol) []float64                  { return p.EstimateInto(nil) }
func localOf(p gossip.Protocol) (v gossip.Value)              { p.LocalValueInto(&v); return }

func protos(n int) []gossip.Protocol {
	out := make([]gossip.Protocol, n)
	for i := range out {
		out[i] = New()
	}
	return out
}

func TestHalvingSemantics(t *testing.T) {
	n := New()
	n.Reset(0, []int32{1}, gossip.Scalar(8, 2))
	msg := sendTo(n, 1)
	if msg.Flow1.X[0] != 4 || msg.Flow1.W != 1 {
		t.Fatalf("sent share = %v", msg.Flow1)
	}
	lv := localOf(n)
	if lv.X[0] != 4 || lv.W != 1 {
		t.Fatalf("remaining mass = %v", lv)
	}
	// Estimate is invariant under sends (ratio preserved).
	if estimateOf(n)[0] != 4 {
		t.Fatalf("estimate = %g", estimateOf(n)[0])
	}
}

func TestReceiveAccumulates(t *testing.T) {
	n := New()
	n.Reset(1, []int32{0}, gossip.Scalar(2, 1))
	n.Receive(gossip.Message{From: 0, To: 1, Flow1: gossip.Scalar(4, 1)})
	lv := localOf(n)
	if lv.X[0] != 6 || lv.W != 2 {
		t.Fatalf("mass after receive = %v", lv)
	}
}

func TestReceiveScreensMalformed(t *testing.T) {
	n := New()
	n.Reset(1, []int32{0}, gossip.Scalar(2, 1))
	before := localOf(n)
	n.Receive(gossip.Message{From: 0, To: 1, Flow1: gossip.Scalar(math.Inf(1), 1)})
	n.Receive(gossip.Message{From: 0, To: 1, Flow1: gossip.NewValue(4)})
	if !localOf(n).Equal(before) {
		t.Fatal("malformed message accepted")
	}
}

func TestOnLinkFailureDropsNeighbor(t *testing.T) {
	n := New()
	n.Reset(0, []int32{1, 2, 3}, gossip.Scalar(1, 1))
	n.OnLinkFailure(2)
	live := n.LiveNeighbors()
	if len(live) != 2 || live[0] != 1 || live[1] != 3 {
		t.Fatalf("live = %v", live)
	}
}

func TestConverges(t *testing.T) {
	g := topology.Hypercube(5)
	inputs := make([]float64, 32)
	for i := range inputs {
		inputs[i] = float64(i)
	}
	for _, agg := range []gossip.Aggregate{gossip.Sum, gossip.Average} {
		e := sim.NewScalar(g, protos(32), inputs, agg, 8)
		res := e.Run(sim.RunConfig{MaxRounds: 3000, Eps: 1e-12})
		if !res.Converged {
			t.Fatalf("%s not converged: %.3e", agg, e.MaxError())
		}
	}
}

// The defining fragility (paper Sec. II-A): one lost message permanently
// biases push-sum — the error floor stays at roughly the share of the
// lost mass, orders of magnitude above machine precision.
func TestSingleLossPermanentlyBiases(t *testing.T) {
	g := topology.Hypercube(5)
	inputs := make([]float64, 32)
	for i := range inputs {
		inputs[i] = 1 + float64(i%5)
	}
	e := sim.NewScalar(g, protos(32), inputs, gossip.Average, 14)
	dropped := false
	e.SetInterceptor(sim.InterceptorFunc(func(round int, msg *gossip.Message) bool {
		if !dropped && round == 10 {
			dropped = true
			return false
		}
		return true
	}))
	res := e.Run(sim.RunConfig{MaxRounds: 5000, StallRounds: 200})
	if !dropped {
		t.Fatal("no message was dropped")
	}
	if res.BestMax < 1e-8 {
		t.Fatalf("push-sum recovered from a lost message (floor %.3e) — it must not", res.BestMax)
	}
}

func TestResetReuse(t *testing.T) {
	n := New()
	n.Reset(0, []int32{1}, gossip.Scalar(8, 1))
	sendTo(n, 1)
	n.Reset(2, []int32{3, 4}, gossip.Scalar(3, 1))
	if lv := localOf(n); lv.X[0] != 3 || lv.W != 1 {
		t.Fatalf("mass after Reset = %v", lv)
	}
	if len(n.LiveNeighbors()) != 2 {
		t.Fatal("neighbors after Reset")
	}
}

// Live monitoring: SetInput applies the delta to the current mass, so
// the estimate tracks input changes on a reliable transport.
func TestSetInputDelta(t *testing.T) {
	n := New()
	n.Reset(0, []int32{1}, gossip.Scalar(8, 1))
	sendTo(n, 1) // mass now (4, 0.5)
	n.SetInput(gossip.Scalar(10, 1))
	lv := localOf(n)
	if lv.X[0] != 6 || lv.W != 0.5 { // +2 delta applied to remaining mass
		t.Fatalf("mass after SetInput = %v", lv)
	}
	// A second update is relative to the last input, not the original.
	n.SetInput(gossip.Scalar(7, 1))
	if got := localOf(n).X[0]; got != 3 {
		t.Fatalf("mass after second SetInput = %g, want 3", got)
	}
}
