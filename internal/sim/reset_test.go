package sim_test

import (
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/detect"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/flowupdate"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/pushsum"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

// Fresh-value forms of FillMessage, EstimateInto and LocalValueInto.
func estimateOf(p gossip.Protocol) []float64 { return p.EstimateInto(nil) }

var allProtocols = []struct {
	name string
	mk   func() gossip.Protocol
}{
	{"pushsum", func() gossip.Protocol { return pushsum.New() }},
	{"pushflow", func() gossip.Protocol { return pushflow.New() }},
	{"flowupdate", func() gossip.Protocol { return flowupdate.New() }},
	{"pcf", func() gossip.Protocol { return core.NewEfficient() }},
	{"pcf-robust", func() gossip.Protocol { return core.NewRobust() }},
}

// faultyRun exercises the round loop plus the failure paths: a notified
// link failure and a node crash mid-run, with per-round recording.
func faultyRun(e *sim.Engine) sim.Result {
	plan := fault.NewPlan(
		fault.LinkFailure(30, 0, 1),
		fault.NodeCrash(60, 5),
	)
	return e.Run(sim.RunConfig{MaxRounds: 120, Record: true, OnRound: plan.OnRound})
}

func sameSeries(t *testing.T, label string, a, b stats.Series) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: series lengths differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: series diverge at point %d: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

func sameEstimates(t *testing.T, label string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: estimate counts differ", label)
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: node %d estimate widths differ", label, i)
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				t.Fatalf("%s: node %d component %d: %g vs %g", label, i, k, a[i][k], b[i][k])
			}
		}
	}
}

// Engine.Reset promises that a reused engine reproduces a freshly
// constructed one bit-for-bit: same RNG stream, same schedule, same
// protocol state, even when the previous trial left failed links, crashed
// nodes and queued messages behind.
func TestResetReproducesFresh(t *testing.T) {
	g := topology.Hypercube(4)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(7*i%11) + 0.25
	}
	for _, tc := range allProtocols {
		t.Run(tc.name, func(t *testing.T) {
			fresh := sim.NewScalar(g, fuzzProtos(n, tc.mk), inputs, gossip.Average, 42)
			resFresh := faultyRun(fresh)

			reused := sim.NewScalar(g, fuzzProtos(n, tc.mk), inputs, gossip.Average, 7)
			// Dirty the engine thoroughly: different schedule, permanent
			// and silent failures, a hung node, queued in-flight messages.
			reused.SilenceLink(2, 3)
			reused.HangNode(9)
			reused.Run(sim.RunConfig{MaxRounds: 25})
			reused.FailLink(0, 2)
			reused.CrashNodeSilent(12)
			reused.Step()

			reused.Reset(42)
			resReused := faultyRun(reused)
			sameSeries(t, tc.name, resFresh.Series, resReused.Series)
			sameEstimates(t, tc.name, fresh.Estimates(), reused.Estimates())
		})
	}
}

// Reset must also rewind detector state: a reused detector-enabled engine
// reproduces a fresh one across a silent outage with suspicion and
// reintegration.
func TestResetReproducesFreshWithDetector(t *testing.T) {
	g := topology.Hypercube(4)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i%9) + 0.125
	}
	cfg := detect.Config{Timeout: 12}
	plan := fault.NewPlan(fault.LinkOutage(20, 60, 0, 1)...)
	run := func(e *sim.Engine) sim.Result {
		return e.Run(sim.RunConfig{MaxRounds: 150, Record: true, OnRound: plan.OnRound})
	}
	mk := func() gossip.Protocol { return core.NewEfficient() }

	fresh := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 5, sim.WithDetector(cfg))
	resFresh := run(fresh)

	reused := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 77, sim.WithDetector(cfg))
	reused.Run(sim.RunConfig{MaxRounds: 40, OnRound: plan.OnRound})
	reused.Reset(5)
	resReused := run(reused)

	sameSeries(t, "pcf+detector", resFresh.Series, resReused.Series)
	sameEstimates(t, "pcf+detector", fresh.Estimates(), reused.Estimates())
	if fresh.DetectorStats() != reused.DetectorStats() {
		t.Fatalf("detector stats diverge: %+v vs %+v", fresh.DetectorStats(), reused.DetectorStats())
	}
}
