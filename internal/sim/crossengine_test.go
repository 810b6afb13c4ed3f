package sim_test

import (
	"context"
	"math"
	"testing"
	"time"

	"pcfreduce/internal/core"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/runtime"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// Cross-engine consistency: the same protocol instances driven by the
// round simulator, the continuous-time event engine and the goroutine
// runtime must all converge to the same aggregate — the protocols know
// nothing about which engine hosts them.
func TestCrossEngineConsistency(t *testing.T) {
	g := topology.Hypercube(4)
	n := g.N()
	inputs := make([]float64, n)
	var want float64
	for i := range inputs {
		inputs[i] = float64(3*i%11) + 0.25
		want += inputs[i]
	}
	want /= float64(n)
	mk := func() gossip.Protocol { return core.NewEfficient() }
	scalarVals := func() []gossip.Value {
		init := make([]gossip.Value, n)
		for i, x := range inputs {
			init[i] = gossip.Scalar(x, 1)
		}
		return init
	}

	// Round simulator.
	protosA := fuzzProtos(n, mk)
	eng := sim.NewScalar(g, protosA, inputs, gossip.Average, 1)
	if res := eng.Run(sim.RunConfig{MaxRounds: 3000, Eps: 1e-11}); !res.Converged {
		t.Fatalf("round engine: %.3e", eng.MaxError())
	}
	roundEst := estimateOf(protosA[0])[0]

	// Event engine.
	ev := sim.NewEvent(g, fuzzProtos(n, mk), scalarVals(), sim.EventConfig{
		MeanInterval: 1, IntervalJitter: 0.5, LatencyMin: 0.02, LatencyMax: 0.1, Seed: 2,
	})
	if res := ev.RunUntil(5000, 1e-11); !res.Converged {
		t.Fatalf("event engine: %.3e", res.FinalMaxError)
	}

	// Goroutine runtime.
	net, err := runtime.New(runtime.Config{Graph: g, NewProtocol: mk, Init: scalarVals(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run(context.Background(), runtime.RunConfig{Eps: 1e-9, Timeout: 10 * time.Second, Stable: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("runtime: %.3e", res.FinalMaxError)
	}
	rtEst := net.Estimates()[0][0]

	for nameEst, est := range map[string]float64{
		"round":   roundEst,
		"runtime": rtEst,
	} {
		if math.Abs(est-want)/want > 1e-8 {
			t.Fatalf("%s engine estimate %.12g, want %.12g", nameEst, est, want)
		}
	}
}
