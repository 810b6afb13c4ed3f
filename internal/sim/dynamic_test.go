package sim

import (
	"math"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/pushsum"
	"pcfreduce/internal/topology"
)

// Live monitoring: after an input change mid-run, the oracle moves and
// the flow protocols re-converge to the new aggregate.
func TestUpdateInputReconverges(t *testing.T) {
	g := topology.Hypercube(4)
	inputs := someInputs(16)
	e := NewScalar(g, pcfProtos(16), inputs, gossip.Average, 5)
	res := e.Run(RunConfig{MaxRounds: 2000, Eps: 1e-13})
	if !res.Converged {
		t.Fatal("initial convergence failed")
	}
	before := e.Targets()[0]
	e.UpdateInput(3, gossip.Scalar(inputs[3]+10, 1))
	after := e.Targets()[0]
	if math.Abs((after-before)-10.0/16) > 1e-12 {
		t.Fatalf("oracle moved %g, want %g", after-before, 10.0/16)
	}
	// Error is large right after the change, then re-converges.
	if e.MaxError() < 1e-3 {
		t.Fatalf("error after update suspiciously small: %.3e", e.MaxError())
	}
	res = e.Run(RunConfig{MaxRounds: 2000, Eps: 1e-13})
	if !res.Converged {
		t.Fatalf("did not re-converge after input change: %.3e", e.MaxError())
	}
}

// Push-sum supports SetInput via mass deltas (LiMoSense-style) on a
// reliable transport.
func TestUpdateInputPushSum(t *testing.T) {
	g := topology.Complete(8)
	protos := makeProtos(8, func() gossip.Protocol { return pushsum.New() })
	inputs := someInputs(8)
	e := NewScalar(g, protos, inputs, gossip.Average, 5)
	e.Run(RunConfig{MaxRounds: 500, Eps: 1e-12})
	e.UpdateInput(0, gossip.Scalar(inputs[0]-3, 1))
	res := e.Run(RunConfig{MaxRounds: 1000, Eps: 1e-12})
	if !res.Converged {
		t.Fatalf("push-sum did not track the change: %.3e", e.MaxError())
	}
}

// Repeated updates: the network tracks a moving target across several
// changes.
func TestUpdateInputRepeated(t *testing.T) {
	g := topology.Hypercube(4)
	inputs := someInputs(16)
	e := NewScalar(g, pcfProtos(16), inputs, gossip.Average, 9)
	for k := 0; k < 5; k++ {
		node := (3 * k) % 16
		inputs[node] += float64(k) - 2
		e.UpdateInput(node, gossip.Scalar(inputs[node], 1))
		res := e.Run(RunConfig{MaxRounds: 2000, Eps: 1e-12})
		if !res.Converged {
			t.Fatalf("update %d: not re-converged (%.3e)", k, e.MaxError())
		}
	}
}

func TestUpdateInputValidation(t *testing.T) {
	g := topology.Path(3)
	e := NewScalar(g, pcfProtos(3), []float64{1, 2, 3}, gossip.Average, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("weight change must panic")
		}
	}()
	e.UpdateInput(0, gossip.Scalar(5, 0.5)) // weight differs
}

func TestUpdateInputCrashedNodeIgnored(t *testing.T) {
	g := topology.Complete(4)
	e := NewScalar(g, pcfProtos(4), []float64{1, 2, 3, 4}, gossip.Average, 1)
	e.CrashNode(2)
	target := e.Targets()[0]
	e.UpdateInput(2, gossip.Scalar(100, 1))
	if e.Targets()[0] != target {
		t.Fatal("update on a crashed node moved the oracle")
	}
}

// PCF-specific: SetInput must not disturb the flow state — only the
// estimate shifts, by exactly the delta.
func TestSetInputShiftsEstimateExactly(t *testing.T) {
	a := core.NewEfficient()
	a.Reset(0, []int32{1}, gossip.Scalar(8, 1))
	b := core.NewEfficient()
	b.Reset(1, []int32{0}, gossip.Scalar(2, 1))
	for k := 0; k < 6; k++ {
		b.Receive(sendTo(a, 1))
		a.Receive(sendTo(b, 0))
	}
	before := localOf(a)
	a.SetInput(gossip.Scalar(10.5, 1))
	after := localOf(a)
	if d := after.X[0] - before.X[0]; d != 2.5 {
		t.Fatalf("estimate shifted by %g, want exactly 2.5", d)
	}
	if after.W != before.W {
		t.Fatal("weight mass must not change")
	}
}
