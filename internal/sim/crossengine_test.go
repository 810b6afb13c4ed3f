package sim_test

import (
	"context"
	"math"
	"testing"
	"time"

	"pcfreduce/internal/core"
	"pcfreduce/internal/detect"
	"pcfreduce/internal/fault"
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

// crossContains reports whether list contains x (test-local; the
// sim-package helper is not exported).
func crossContains(list []int, x int) bool {
	for _, v := range list {
		if v == x {
			return true
		}
	}
	return false
}

// TestCrossEngineSilentCrash drives one fault.Plan — a silent node crash
// that only a failure detector can observe — through both execution
// engines: the round simulator via Plan.OnRound and the goroutine
// runtime via Plan.RunOn. The crashed node's input is pinned to the
// survivors' mean so both engines share the same post-crash target, and
// both survivor populations must detect the crash, evict the node and
// agree on that target.
func TestCrossEngineSilentCrash(t *testing.T) {
	g := topology.Hypercube(5)
	n := g.N()
	const crash = 5
	inputs := make([]float64, n)
	var rest float64
	for i := range inputs {
		inputs[i] = float64(3*i%11) + 0.25
		if i != crash {
			rest += inputs[i]
		}
	}
	want := rest / float64(n-1)
	inputs[crash] = want // crash loses no aggregate information

	mk := func() gossip.Protocol { return core.NewEfficient() }
	plan := fault.NewPlan(fault.SilentNodeCrash(40, crash))

	// Round simulator: round-denominated detector, crash injected by the
	// plan at round 40, suspicion after 30 silent rounds.
	eng := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 11,
		sim.WithDetector(detect.Config{Timeout: 30}))
	eng.Run(sim.RunConfig{MaxRounds: 500, OnRound: plan.OnRound})
	simLo, simHi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		if i == crash {
			continue
		}
		est := estimateOf(eng.Protocol(i))[0]
		simLo, simHi = math.Min(simLo, est), math.Max(simHi, est)
	}
	if simHi-simLo > 1e-8 {
		t.Fatalf("sim survivors did not reach consensus: spread %.3e", simHi-simLo)
	}
	if math.Abs(simLo-want) > 5e-2 {
		t.Fatalf("sim survivor estimate %.6g, want %.6g ± 5e-2", simLo, want)
	}
	for _, j := range g.Neighbors(crash) {
		if !crossContains(eng.Suspects(int(j)), crash) {
			t.Errorf("sim: neighbor %d does not suspect the crashed node", j)
		}
	}

	// Goroutine runtime: the same plan replayed on a 1ms wall-clock tick
	// (crash at ~40ms), wall-clock detector, oracle-free termination.
	init := make([]gossip.Value, n)
	for i, x := range inputs {
		init[i] = gossip.Scalar(x, 1)
	}
	net, err := runtime.New(runtime.Config{
		Graph:       g,
		NewProtocol: mk,
		Init:        init,
		Seed:        12,
		Detector:    &runtime.DetectorConfig{SuspicionTimeout: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	planDone := make(chan error, 1)
	go func() { planDone <- plan.RunOn(ctx, net, time.Millisecond) }()
	res, err := net.Run(ctx, runtime.RunConfig{
		Eps: 1e-9, Timeout: 30 * time.Second, Stable: 500, OracleFree: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-planDone; err != nil {
		t.Fatalf("plan replay failed: %v", err)
	}
	if !res.Converged {
		t.Fatalf("runtime survivors did not converge: %.3e", res.FinalMaxError)
	}
	ests := net.Estimates()
	rtLo, rtHi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		if i == crash {
			continue
		}
		rtLo, rtHi = math.Min(rtLo, ests[i][0]), math.Max(rtHi, ests[i][0])
	}
	if rtHi-rtLo > 1e-6 {
		t.Fatalf("runtime survivors did not reach consensus: spread %.3e", rtHi-rtLo)
	}
	if math.Abs(rtLo-want) > 5e-2 {
		t.Fatalf("runtime survivor estimate %.6g, want %.6g ± 5e-2", rtLo, want)
	}
	for _, j := range g.Neighbors(crash) {
		if !crossContains(net.Suspects(int(j)), crash) {
			t.Errorf("runtime: neighbor %d does not suspect the crashed node", j)
		}
	}

	// Cross-engine agreement: both survivor populations settled on the
	// same aggregate.
	if math.Abs(simLo-rtLo) > 1e-1 {
		t.Fatalf("engines disagree: sim %.6g vs runtime %.6g", simLo, rtLo)
	}
}

// TestCrossEngineTransientOutage drives one fault.Plan — a silent link
// outage that later heals — through both engines. PCF's flow state makes
// the outage survivable without mass loss: after the detectors evict and
// then reintegrate the link, both engines must converge all the way to
// the full-membership mean.
func TestCrossEngineTransientOutage(t *testing.T) {
	g := topology.Ring(16)
	n := g.N()
	inputs := make([]float64, n)
	var sum float64
	for i := range inputs {
		inputs[i] = float64(5*i%13) + 0.5
		sum += inputs[i]
	}
	want := sum / float64(n)

	mk := func() gossip.Protocol { return core.NewEfficient() }
	plan := fault.NewPlan(fault.LinkOutage(10, 120, 0, 1)...)

	// Round simulator: outage rounds 10–120, suspicion after 30 silent
	// rounds, so the link is evicted mid-outage and reintegrated after
	// the heal. Convergence is oracle-checked to the true mean.
	eng := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 5,
		sim.WithDetector(detect.Config{Timeout: 30}))
	res := eng.Run(sim.RunConfig{MaxRounds: 4000, Eps: 1e-10, OnRound: plan.OnRound})
	if !res.Converged {
		t.Fatalf("sim did not reconverge after the outage: %.3e", eng.MaxError())
	}
	if st := eng.DetectorStats(); st.Reintegrations < 2 {
		t.Fatalf("sim: %d reintegrations, want ≥ 2 (both endpoints heal)", st.Reintegrations)
	}
	simEst := estimateOf(eng.Protocol(0))[0]
	if math.Abs(simEst-want) > 1e-8 {
		t.Fatalf("sim estimate %.12g, want %.12g", simEst, want)
	}

	// Goroutine runtime: the same plan on a 1ms tick (outage ~10ms–120ms)
	// with a 10ms wall-clock suspicion timeout.
	init := make([]gossip.Value, n)
	for i, x := range inputs {
		init[i] = gossip.Scalar(x, 1)
	}
	net, err := runtime.New(runtime.Config{
		Graph:       g,
		NewProtocol: mk,
		Init:        init,
		Seed:        6,
		Detector:    &runtime.DetectorConfig{SuspicionTimeout: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	planDone := make(chan error, 1)
	go func() { planDone <- plan.RunOn(ctx, net, time.Millisecond) }()
	rtRes, err := net.Run(ctx, runtime.RunConfig{
		Eps: 1e-9, Timeout: 30 * time.Second, Stable: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-planDone; err != nil {
		t.Fatalf("plan replay failed: %v", err)
	}
	if !rtRes.Converged {
		t.Fatalf("runtime did not reconverge after the outage: %.3e", rtRes.FinalMaxError)
	}
	rtEst := net.Estimates()[0][0]
	if math.Abs(rtEst-want) > 1e-6 {
		t.Fatalf("runtime estimate %.12g, want %.12g", rtEst, want)
	}
	if math.Abs(simEst-rtEst) > 1e-6 {
		t.Fatalf("engines disagree: sim %.12g vs runtime %.12g", simEst, rtEst)
	}
}
