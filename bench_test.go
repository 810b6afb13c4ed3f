// Benchmarks regenerating the data behind every figure of the paper's
// evaluation (Figs. 2, 3, 4, 6, 7, 8 — Figs. 1 and 5 are pseudocode),
// plus protocol microbenchmarks. Each figure bench runs one
// representative cell of its experiment per iteration and reports the
// headline metric via b.ReportMetric, so
//
//	go test -bench=Fig -benchmem
//
// reproduces the qualitative content of the whole evaluation, and
// cmd/figures prints the full tables. Paper-scale parameters are noted
// per bench.
package pcfreduce_test

import (
	"math"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/experiments"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/pushsum"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// ----------------------------------------------------------------------
// Figure 2 — bus-network worked example (PF flow equilibrium).
// ----------------------------------------------------------------------

func BenchmarkFig2BusExample(b *testing.B) {
	var inv float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.BusExample(experiments.PushFlow, 8, 3)
		if err != nil {
			b.Fatal(err)
		}
		inv = res.FlowInvariant[0]
	}
	b.ReportMetric(inv, "edge0-invariant") // analytic value: n−1 = 7
}

// ----------------------------------------------------------------------
// Figure 3 — PF accuracy floor vs system size.
// Paper scale: 3D torus and hypercube up to 2^15 nodes; here one
// representative cell per topology family at 2^9 nodes (scale with
// -benchtime or run cmd/figures -fig 3 -scale 5 for the full sweep).
// ----------------------------------------------------------------------

func BenchmarkFig3PFAccuracyHypercube(b *testing.B) {
	benchAccuracy(b, experiments.PushFlow, experiments.HypercubeTopo)
}

func BenchmarkFig3PFAccuracyTorus3D(b *testing.B) {
	benchAccuracy(b, experiments.PushFlow, experiments.Torus3D)
}

// ----------------------------------------------------------------------
// Figure 6 — PCF accuracy floor vs system size (same grid as Fig. 3).
// ----------------------------------------------------------------------

func BenchmarkFig6PCFAccuracyHypercube(b *testing.B) {
	benchAccuracy(b, experiments.PCF, experiments.HypercubeTopo)
}

func BenchmarkFig6PCFAccuracyTorus3D(b *testing.B) {
	benchAccuracy(b, experiments.PCF, experiments.Torus3D)
}

func benchAccuracy(b *testing.B, algo experiments.Algorithm, kind experiments.TopologyKind) {
	var floor float64
	for i := 0; i < b.N; i++ {
		p := experiments.AccuracySingle(algo, kind, gossip.Average, 3, 1) // 512 nodes
		floor = p.FloorMaxErr
	}
	// Report as correct decimal digits so the value survives the
	// benchmark output format (−log10 of the maximal local error).
	b.ReportMetric(-math.Log10(floor), "accuracy-digits")
}

// ----------------------------------------------------------------------
// Figure 4 — PF, single permanent link failure at iteration 75/175 on a
// 6D hypercube: the fall-back factor is the figure's message.
// ----------------------------------------------------------------------

func BenchmarkFig4PFLinkFailure(b *testing.B) {
	benchFailure(b, experiments.PushFlow)
}

// ----------------------------------------------------------------------
// Figure 7 — PCF, identical setup and schedule: no fall-back.
// ----------------------------------------------------------------------

func BenchmarkFig7PCFLinkFailure(b *testing.B) {
	benchFailure(b, experiments.PCF)
}

func benchFailure(b *testing.B, algo experiments.Algorithm) {
	var fallback float64
	for i := 0; i < b.N; i++ {
		res := experiments.Failure(experiments.DefaultFailureConfig(algo, 175))
		fallback = res.Fallback
	}
	b.ReportMetric(fallback, "fallback-factor")
}

// ----------------------------------------------------------------------
// Figure 8 — dmGS factorization error on a failure-free hypercube.
// Paper scale: N = 2^5..2^10, m = 16, 50 runs; here one run at N = 2^5
// per iteration (full sweep: cmd/qrbench -maxdim 10 -runs 50).
// ----------------------------------------------------------------------

func BenchmarkFig8DmGSPF(b *testing.B) {
	benchQR(b, experiments.PushFlow)
}

func BenchmarkFig8DmGSPCF(b *testing.B) {
	benchQR(b, experiments.PCF)
}

func benchQR(b *testing.B, algo experiments.Algorithm) {
	var factErr float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultQRConfig(algo, 1)
		p, err := experiments.QRSingle(cfg, 5)
		if err != nil {
			b.Fatal(err)
		}
		factErr = p.FactErrMean
	}
	b.ReportMetric(-math.Log10(factErr), "fact-accuracy-digits")
}

// ----------------------------------------------------------------------
// Ablation benches (EXP-B, EXP-C): scaling and failure-free overhead.
// ----------------------------------------------------------------------

// BenchmarkExpBRoundsToEps reports the rounds a PCF reduction needs to
// reach 1e-9 on a 1024-node hypercube (the O(log n + log 1/ε) claim).
func BenchmarkExpBRoundsToEps(b *testing.B) {
	g := topology.Hypercube(10)
	inputs := experiments.UniformInputs(g.N(), 1)
	var rounds int
	for i := 0; i < b.N; i++ {
		e := sim.NewScalar(g, experiments.PCF.Protos(g.N()), inputs, gossip.Average, int64(i))
		res := e.Run(sim.RunConfig{MaxRounds: 5000, Eps: 1e-9})
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkExpCFailureFreeOverhead compares one full PF round and one
// full PCF round on the same 64-node hypercube — the "computational
// efficiency fully preserved" claim in wall-clock terms.
func BenchmarkExpCFailureFreeOverheadPF(b *testing.B) {
	benchRounds(b, func() gossip.Protocol { return pushflow.New() })
}

func BenchmarkExpCFailureFreeOverheadPCF(b *testing.B) {
	benchRounds(b, func() gossip.Protocol { return core.NewEfficient() })
}

func BenchmarkExpCFailureFreeOverheadPCFRobust(b *testing.B) {
	benchRounds(b, func() gossip.Protocol { return core.NewRobust() })
}

func BenchmarkExpCFailureFreeOverheadPushSum(b *testing.B) {
	benchRounds(b, func() gossip.Protocol { return pushsum.New() })
}

func benchRounds(b *testing.B, mk func() gossip.Protocol) {
	g := topology.Hypercube(6)
	inputs := experiments.UniformInputs(g.N(), 1)
	protos := make([]gossip.Protocol, g.N())
	for i := range protos {
		protos[i] = mk()
	}
	e := sim.NewScalar(g, protos, inputs, gossip.Average, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// ----------------------------------------------------------------------
// Protocol microbenchmarks: one send + one receive on a warm node.
// ----------------------------------------------------------------------

func benchExchange(b *testing.B, mk func() gossip.Protocol) {
	a, c := mk(), mk()
	a.Reset(0, []int32{1}, gossip.Scalar(8, 1))
	c.Reset(1, []int32{0}, gossip.Scalar(2, 1))
	var m gossip.Message
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.FillMessage(1, &m)
		c.Receive(m)
		c.FillMessage(0, &m)
		a.Receive(m)
	}
}

func BenchmarkExchangePushSum(b *testing.B) {
	benchExchange(b, func() gossip.Protocol { return pushsum.New() })
}

func BenchmarkExchangePushFlow(b *testing.B) {
	benchExchange(b, func() gossip.Protocol { return pushflow.New() })
}

func BenchmarkExchangePCF(b *testing.B) {
	benchExchange(b, func() gossip.Protocol { return core.NewEfficient() })
}

func BenchmarkExchangePCFRobust(b *testing.B) {
	benchExchange(b, func() gossip.Protocol { return core.NewRobust() })
}

// Vector payloads (width 16, the dmGS case).
func BenchmarkExchangePCFVector16(b *testing.B) {
	a, c := core.NewEfficient(), core.NewEfficient()
	xs := make([]float64, 16)
	for i := range xs {
		xs[i] = float64(i)
	}
	a.Reset(0, []int32{1}, gossip.Vector(xs, 1))
	c.Reset(1, []int32{0}, gossip.Vector(xs, 1))
	var m gossip.Message
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.FillMessage(1, &m)
		c.Receive(m)
		c.FillMessage(0, &m)
		a.Receive(m)
	}
}

// BenchmarkEventEngine measures the continuous-time engine's event
// throughput (activations + deliveries per op) on a 64-node hypercube.
func BenchmarkEventEngine(b *testing.B) {
	g := topology.Hypercube(6)
	inputs := experiments.UniformInputs(g.N(), 1)
	init := make([]gossip.Value, g.N())
	for i, x := range inputs {
		init[i] = gossip.Scalar(x, 1)
	}
	protos := experiments.PCF.Protos(g.N())
	e := sim.NewEvent(g, protos, init, sim.EventConfig{
		MeanInterval: 1, IntervalJitter: 0.5, LatencyMin: 0.05, LatencyMax: 0.2, Seed: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(float64(i+1), 0) // one mean interval per op: ~64 activations
	}
}

// Ablation bench: the two PCF variants' estimate cost — the robust
// variant recomputes v − ϕ − Σf per estimate while the efficient one
// reads v − ϕ (DESIGN.md; paper Sec. III-A trade-off).
func BenchmarkEstimateEfficient(b *testing.B) {
	benchEstimate(b, core.NewEfficient())
}

func BenchmarkEstimateRobust(b *testing.B) {
	benchEstimate(b, core.NewRobust())
}

func benchEstimate(b *testing.B, n *core.Node) {
	neighbors := []int32{1, 2, 3, 4, 5, 6}
	n.Reset(0, neighbors, gossip.Scalar(8, 1))
	var m gossip.Message
	for _, j := range neighbors {
		n.FillMessage(int(j), &m)
	}
	var est []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est = n.EstimateInto(est)
	}
}
