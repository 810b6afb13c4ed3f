package sim

import (
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/topology"
)

func scalarValues(inputs []float64, agg gossip.Aggregate) []gossip.Value {
	out := make([]gossip.Value, len(inputs))
	for i, x := range inputs {
		out[i] = gossip.Scalar(x, agg.InitialWeight(i))
	}
	return out
}

func TestEventEngineConvergesAllProtocols(t *testing.T) {
	g := topology.Hypercube(5)
	inputs := someInputs(g.N())
	// Latencies small relative to the activation interval: exchanges
	// rarely overlap ("crossing"), matching the atomic-exchange model
	// the gossip algorithms are designed for.
	cfg := EventConfig{
		MeanInterval:   1,
		IntervalJitter: 0.5,
		LatencyMin:     0.05,
		LatencyMax:     0.2,
		Seed:           3,
	}
	mks := map[string]func() gossip.Protocol{
		"pushflow":   func() gossip.Protocol { return pushflow.New() },
		"pcf":        pcfMk,
		"pcf-robust": func() gossip.Protocol { return core.NewRobust() },
	}
	for name, mk := range mks {
		e := NewEvent(g, makeProtos(g.N(), mk), scalarValues(inputs, gossip.Average), cfg)
		res := e.RunUntil(3000, 1e-11)
		if !res.Converged {
			t.Errorf("%s: not converged by t=%g (err %.3e)", name, res.Time, res.FinalMaxError)
		}
	}
}

// Latencies that overlap concurrent activity: exchanges cross (both
// endpoints send before receiving the other's message), and with
// LatencyMax above the shortest activation interval messages on a link
// also overtake each other. PF's memoryless per-edge state absorbs
// this; PCF's crossing rule keeps a crossing out of the slot it cancels
// next (DESIGN.md, finding 5), so PCF converges too; without the rule it
// settled 2.1e-2 away from the average on this schedule.
func TestEventEngineCrossingLatencies(t *testing.T) {
	g := topology.Hypercube(4)
	inputs := someInputs(g.N())
	cfg := EventConfig{
		MeanInterval:   1,
		IntervalJitter: 0.9,
		LatencyMin:     0.1,
		LatencyMax:     1.5, // overlapping deliveries: frequent crossing
		Seed:           7,
	}
	for name, mk := range map[string]func() gossip.Protocol{
		"PF":  func() gossip.Protocol { return pushflow.New() },
		"PCF": pcfMk,
	} {
		e := NewEvent(g, makeProtos(g.N(), mk), scalarValues(inputs, gossip.Average), cfg)
		if res := e.RunUntil(20000, 1e-10); !res.Converged {
			t.Errorf("%s: not converged under crossing (err %.3e)", name, res.FinalMaxError)
		}
	}
}

// PF tolerates even heavy reordering (several messages per link in
// flight, arbitrary order) because its per-edge state is memoryless.
func TestEventEnginePFHeavyReordering(t *testing.T) {
	g := topology.Hypercube(4)
	inputs := someInputs(g.N())
	cfg := EventConfig{
		MeanInterval:   1,
		IntervalJitter: 0.9,
		LatencyMin:     0.1,
		LatencyMax:     5,
		Seed:           7,
	}
	mk := func() gossip.Protocol { return pushflow.New() }
	e := NewEvent(g, makeProtos(g.N(), mk), scalarValues(inputs, gossip.Average), cfg)
	res := e.RunUntil(20000, 1e-8)
	if !res.Converged {
		t.Errorf("PF: not converged under heavy reordering (err %.3e)", res.FinalMaxError)
	}
}

// With zero latency the event engine is the classical asynchronous
// gossip model (independent activation clocks, atomic exchanges): PCF
// is exact there.
func TestEventEngineAtomicExchangesExact(t *testing.T) {
	g := topology.Hypercube(5)
	inputs := someInputs(g.N())
	cfg := EventConfig{MeanInterval: 1, IntervalJitter: 0.5, Seed: 3}
	e := NewEvent(g, makeProtos(g.N(), pcfMk), scalarValues(inputs, gossip.Average), cfg)
	res := e.RunUntil(5000, 1e-12)
	if !res.Converged {
		t.Errorf("PCF not exact under atomic exchanges: %.3e", res.FinalMaxError)
	}
}

func TestEventEngineDeterministic(t *testing.T) {
	g := topology.Ring(8)
	inputs := someInputs(8)
	cfg := EventConfig{MeanInterval: 1, LatencyMin: 0.2, LatencyMax: 0.4, Seed: 5}
	run := func() []float64 {
		e := NewEvent(g, makeProtos(8, pcfMk), scalarValues(inputs, gossip.Average), cfg)
		e.RunUntil(50, 0)
		var out []float64
		for _, p := range e.protos {
			out = append(out, estimateOf(p)[0])
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("event engine not deterministic")
		}
	}
}

func TestEventEngineValidation(t *testing.T) {
	g := topology.Ring(4)
	init := scalarValues(someInputs(4), gossip.Average)
	for _, cfg := range []EventConfig{
		{MeanInterval: 0},                               // no interval
		{MeanInterval: 1, LatencyMin: -1},               // bad latency
		{MeanInterval: 1, LatencyMin: 2, LatencyMax: 1}, // inverted
		{MeanInterval: 1, IntervalJitter: 1.5},          // bad jitter
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("invalid %+v accepted", cfg)
				}
			}()
			NewEvent(g, makeProtos(4, pcfMk), init, cfg)
		}()
	}
}

func TestEventEngineCounters(t *testing.T) {
	g := topology.Ring(4)
	e := NewEvent(g, makeProtos(4, pcfMk), scalarValues(someInputs(4), gossip.Average), EventConfig{
		MeanInterval: 1, LatencyMin: 0.1, LatencyMax: 0.2, Seed: 1,
	})
	e.RunUntil(100, 0)
	if e.Activations < 350 || e.Activations > 450 {
		t.Fatalf("activations = %d, want ≈ 400 (4 nodes × 100 time units)", e.Activations)
	}
	if e.Sends != e.Activations {
		t.Fatalf("sends %d != activations %d (all nodes have live neighbors)", e.Sends, e.Activations)
	}
	if e.Now() < 100 {
		t.Fatalf("time stopped early: %g", e.Now())
	}
}

func pcfMk() gossip.Protocol { return core.NewEfficient() }
