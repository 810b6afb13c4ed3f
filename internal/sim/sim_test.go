package sim

import (
	"math"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/pushsum"
	"pcfreduce/internal/topology"
)

// Fresh-value forms of FillMessage, EstimateInto and LocalValueInto.
func sendTo(p gossip.Protocol, target int) (m gossip.Message) { p.FillMessage(target, &m); return }
func estimateOf(p gossip.Protocol) []float64                  { return p.EstimateInto(nil) }
func localOf(p gossip.Protocol) (v gossip.Value)              { p.LocalValueInto(&v); return }

func pfProtos(n int) []gossip.Protocol {
	return makeProtos(n, func() gossip.Protocol { return pushflow.New() })
}

func pcfProtos(n int) []gossip.Protocol {
	return makeProtos(n, func() gossip.Protocol { return core.NewEfficient() })
}

func someInputs(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i%17) + 0.25
	}
	return out
}

func TestEngineDeterminism(t *testing.T) {
	g := topology.Hypercube(4)
	run := func() []float64 {
		e := NewScalar(g, pfProtos(g.N()), someInputs(g.N()), gossip.Average, 77)
		e.Run(RunConfig{MaxRounds: 50})
		var out []float64
		for _, est := range e.Estimates() {
			out = append(out, est[0])
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d: %g vs %g — engine not deterministic", i, a[i], b[i])
		}
	}
}

func TestEngineSeedsDiffer(t *testing.T) {
	g := topology.Hypercube(4)
	e1 := NewScalar(g, pfProtos(g.N()), someInputs(g.N()), gossip.Average, 1)
	e2 := NewScalar(g, pfProtos(g.N()), someInputs(g.N()), gossip.Average, 2)
	e1.Run(RunConfig{MaxRounds: 10})
	e2.Run(RunConfig{MaxRounds: 10})
	same := true
	for i := 0; i < g.N(); i++ {
		if estimateOf(e1.Protocol(i))[0] != estimateOf(e2.Protocol(i))[0] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestOracleTargets(t *testing.T) {
	g := topology.Path(4)
	inputs := []float64{1, 2, 3, 4}
	eAvg := NewScalar(g, pfProtos(4), inputs, gossip.Average, 1)
	if eAvg.Targets()[0] != 2.5 {
		t.Fatalf("AVG target = %g", eAvg.Targets()[0])
	}
	eSum := NewScalar(g, pfProtos(4), inputs, gossip.Sum, 1)
	if eSum.Targets()[0] != 10 {
		t.Fatalf("SUM target = %g", eSum.Targets()[0])
	}
}

// Mass conservation: after Drain (all in-flight messages processed),
// the sum of local values over all nodes equals the initial mass for
// flow-based protocols, at every point of the computation.
func TestMassConservationAfterDrain(t *testing.T) {
	g := topology.Torus2D(4, 4)
	n := g.N()
	inputs := someInputs(n)
	for name, protos := range map[string][]gossip.Protocol{
		"pushflow": pfProtos(n),
		"pcf":      pcfProtos(n),
		"pcf-robust": makeProtos(n, func() gossip.Protocol {
			return core.NewRobust()
		}),
	} {
		e := NewScalar(g, protos, inputs, gossip.Average, 5)
		var want float64
		for _, x := range inputs {
			want += x
		}
		for step := 0; step < 20; step++ {
			for k := 0; k < 7; k++ {
				e.Step()
			}
			e.Drain()
			mass := e.GlobalMass()
			if math.Abs(mass.X[0]-want) > 1e-9*math.Abs(want) {
				t.Fatalf("%s: mass after %d rounds = %.15g, want %.15g",
					name, e.Round(), mass.X[0], want)
			}
			if math.Abs(mass.W-float64(n)) > 1e-9*float64(n) {
				t.Fatalf("%s: weight mass = %.15g, want %d", name, mass.W, n)
			}
		}
	}
}

// Push-sum conserves mass only while no messages are in flight; Drain
// settles them, so it must conserve too under a failure-free engine.
func TestPushSumMassConservation(t *testing.T) {
	g := topology.Ring(8)
	protos := makeProtos(8, func() gossip.Protocol { return pushsum.New() })
	e := NewScalar(g, protos, someInputs(8), gossip.Average, 3)
	for i := 0; i < 30; i++ {
		e.Step()
	}
	e.Drain()
	var want float64
	for _, x := range someInputs(8) {
		want += x
	}
	if got := e.GlobalMass().X[0]; math.Abs(got-want) > 1e-12*want {
		t.Fatalf("push-sum mass = %.15g, want %.15g", got, want)
	}
}

// interceptorEngines are the executors every interceptor test runs on:
// the legacy engine, whose send path intercepts inline, and sharded
// engines, where a serial interception pass follows delivery.
var interceptorEngines = []struct {
	name string
	opts []EngineOption
}{
	{"legacy", nil},
	{"shards=1", []EngineOption{WithShards(1)}},
	{"shards=3", []EngineOption{WithShards(3)}},
}

// hangWindow hangs node 2 for rounds [3, 7): messages queued for it
// meanwhile wait in its inbox across rounds, and must not be intercepted
// again while they wait.
func hangWindow(e *Engine, round int) {
	switch round {
	case 3:
		e.HangNode(2)
	case 7:
		e.ResumeNode(2)
	}
}

// checkCounterIdentity asserts that every message put on the wire is
// accounted for exactly once: delivered, lost in flight, or dropped by
// the interceptor.
func checkCounterIdentity(t *testing.T, rec *metrics.Recorder) metrics.Snapshot {
	t.Helper()
	c := rec.Counters()
	in := c.Get(metrics.MsgsSent) + c.Get(metrics.Keepalives)
	out := c.Get(metrics.MsgsDelivered) + c.Get(metrics.MsgsLost) + c.Get(metrics.MsgsDropped)
	if in != out {
		t.Fatalf("sent+keepalives = %d, delivered+lost+dropped = %d (%v)", in, out, c)
	}
	return c
}

func TestInterceptorSeesEveryMessage(t *testing.T) {
	g := topology.Complete(5)
	for _, tc := range interceptorEngines {
		t.Run(tc.name, func(t *testing.T) {
			e := NewScalar(g, pfProtos(5), someInputs(5), gossip.Average, 1, tc.opts...)
			defer e.Close()
			rec := metrics.New(metrics.Config{Interval: 1 << 30})
			e.SetMetrics(rec)
			count := 0
			e.SetInterceptor(InterceptorFunc(func(round int, msg *gossip.Message) bool {
				count++
				if msg.From == msg.To {
					t.Fatal("self-message")
				}
				return true
			}))
			e.Run(RunConfig{MaxRounds: 10, OnRound: hangWindow})
			// 5 nodes × 10 rounds, one send each, minus node 2's four hung
			// rounds; a message waiting in the hung inbox is seen once.
			if count != 46 {
				t.Fatalf("interceptor saw %d messages, want 46", count)
			}
			c := checkCounterIdentity(t, rec)
			if got := c.Get(metrics.MsgsDelivered); got != 46 {
				t.Fatalf("delivered %d messages, want 46", got)
			}
		})
	}
}

func TestInterceptorDropAll(t *testing.T) {
	g := topology.Complete(4)
	for _, tc := range interceptorEngines {
		t.Run(tc.name, func(t *testing.T) {
			e := NewScalar(g, pfProtos(4), someInputs(4), gossip.Average, 1, tc.opts...)
			defer e.Close()
			rec := metrics.New(metrics.Config{Interval: 1 << 30})
			e.SetMetrics(rec)
			count := 0
			e.SetInterceptor(InterceptorFunc(func(int, *gossip.Message) bool { count++; return false }))
			e.Run(RunConfig{MaxRounds: 20, OnRound: hangWindow})
			// With every message dropped, no node ever learns anything; but
			// local estimates remain finite and the engine must not wedge.
			for i := 0; i < 4; i++ {
				if est := estimateOf(e.Protocol(i))[0]; math.IsNaN(est) {
					t.Fatalf("node %d estimate NaN under total message loss", i)
				}
			}
			c := checkCounterIdentity(t, rec)
			if sent := c.Get(metrics.MsgsSent); uint64(count) != sent || c.Get(metrics.MsgsDropped) != sent {
				t.Fatalf("intercepted %d, dropped %d of %d sent messages", count, c.Get(metrics.MsgsDropped), sent)
			}
		})
	}
}

func TestFailLinkNotifiesBothEndpoints(t *testing.T) {
	g := topology.Path(3)
	protos := pfProtos(3)
	e := NewScalar(g, protos, []float64{1, 2, 3}, gossip.Average, 1)
	e.Run(RunConfig{MaxRounds: 5})
	e.FailLink(0, 1)
	if got := protos[0].LiveNeighbors(); len(got) != 0 {
		t.Fatalf("node 0 live neighbors after failure: %v", got)
	}
	if got := protos[1].LiveNeighbors(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("node 1 live neighbors after failure: %v", got)
	}
	// Idempotent.
	e.FailLink(0, 1)
}

func TestFailMissingLinkPanics(t *testing.T) {
	g := topology.Path(3)
	e := NewScalar(g, pfProtos(3), []float64{1, 2, 3}, gossip.Average, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("failing a non-edge must panic")
		}
	}()
	e.FailLink(0, 2)
}

// After a graceful link failure the network still converges to the
// original aggregate as long as it stays connected.
func TestConvergenceAfterLinkFailure(t *testing.T) {
	g := topology.Hypercube(4)
	e := NewScalar(g, pcfProtos(16), someInputs(16), gossip.Average, 9)
	e.Run(RunConfig{MaxRounds: 30})
	e.FailLink(0, 1)
	res := e.Run(RunConfig{MaxRounds: 2000, Eps: 1e-13})
	if !res.Converged {
		t.Fatalf("not converged after link failure: %.3e", e.MaxError())
	}
}

func TestCrashNodeRecomputesTarget(t *testing.T) {
	g := topology.Complete(4)
	inputs := []float64{10, 20, 30, 40}
	e := NewScalar(g, pcfProtos(4), inputs, gossip.Average, 2)
	if e.Targets()[0] != 25 {
		t.Fatalf("initial target %g", e.Targets()[0])
	}
	e.Run(RunConfig{MaxRounds: 5})
	e.CrashNode(3)
	if e.Targets()[0] != 20 {
		t.Fatalf("survivor target = %g, want 20", e.Targets()[0])
	}
	if e.Alive(3) {
		t.Fatal("node 3 still alive")
	}
	if ests := e.Estimates(); ests[3] != nil {
		t.Fatal("crashed node still reports estimates")
	}
	if len(e.Errors()) != 3 {
		t.Fatalf("errors over %d nodes, want 3", len(e.Errors()))
	}
	// Crash is idempotent.
	e.CrashNode(3)
}

// Crashing a node early (before mass has spread) lets the survivors
// converge to their own aggregate.
func TestConvergenceAfterEarlyCrash(t *testing.T) {
	g := topology.Hypercube(4)
	e := NewScalar(g, pcfProtos(16), someInputs(16), gossip.Average, 4)
	e.CrashNode(5) // crash before any gossip
	res := e.Run(RunConfig{MaxRounds: 2000, Eps: 1e-12})
	if !res.Converged {
		t.Fatalf("survivors did not converge: %.3e", e.MaxError())
	}
}

func TestRunStallStops(t *testing.T) {
	g := topology.Hypercube(3)
	e := NewScalar(g, pfProtos(8), someInputs(8), gossip.Average, 1)
	res := e.Run(RunConfig{MaxRounds: 100000, StallRounds: 50})
	if res.Rounds >= 100000 {
		t.Fatal("stall criterion never fired")
	}
	if res.BestMax > 1e-12 {
		t.Fatalf("stalled too early: best %.3e", res.BestMax)
	}
}

func TestRunRecordsSeries(t *testing.T) {
	g := topology.Hypercube(3)
	e := NewScalar(g, pfProtos(8), someInputs(8), gossip.Average, 1)
	res := e.Run(RunConfig{MaxRounds: 25, Record: true})
	if len(res.Series) != 25 {
		t.Fatalf("series has %d points, want 25", len(res.Series))
	}
	for i, p := range res.Series {
		if p.Iteration != i+1 {
			t.Fatalf("series iteration %d at index %d", p.Iteration, i)
		}
		if p.Median > p.Max {
			t.Fatalf("median %g > max %g", p.Median, p.Max)
		}
	}
}

func TestAfterRoundHook(t *testing.T) {
	g := topology.Hypercube(3)
	e := NewScalar(g, pfProtos(8), someInputs(8), gossip.Average, 1)
	var rounds []int
	e.Run(RunConfig{MaxRounds: 5, AfterRound: func(round int, maxErr float64) {
		rounds = append(rounds, round)
		if maxErr < 0 {
			t.Fatal("negative error")
		}
	}})
	if len(rounds) != 5 || rounds[0] != 1 || rounds[4] != 5 {
		t.Fatalf("AfterRound rounds = %v", rounds)
	}
}

func TestRunEpsStopsEarly(t *testing.T) {
	g := topology.Complete(8)
	e := NewScalar(g, pcfProtos(8), someInputs(8), gossip.Average, 1)
	res := e.Run(RunConfig{MaxRounds: 10000, Eps: 1e-6})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.Rounds >= 10000 {
		t.Fatal("did not stop early")
	}
	if len(res.Series) == 0 {
		t.Fatal("result must carry at least the final point")
	}
}

func TestNewValidatesShape(t *testing.T) {
	g := topology.Path(3)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched protocol count must panic")
		}
	}()
	New(g, pfProtos(2), make([]gossip.Value, 3), 1)
}

func TestNewValidatesWidths(t *testing.T) {
	g := topology.Path(2)
	init := []gossip.Value{gossip.Scalar(1, 1), gossip.NewValue(2)}
	defer func() {
		if recover() == nil {
			t.Fatal("mixed widths must panic")
		}
	}()
	New(g, pfProtos(2), init, 1)
}

// Vector-valued reduction: all components converge simultaneously.
func TestVectorReduction(t *testing.T) {
	g := topology.Hypercube(4)
	n := g.N()
	init := make([]gossip.Value, n)
	for i := range init {
		init[i] = gossip.Vector([]float64{float64(i), float64(i * i), 1}, 1)
	}
	e := New(g, pcfProtos(n), init, 11)
	res := e.Run(RunConfig{MaxRounds: 3000, Eps: 1e-13})
	if !res.Converged {
		t.Fatalf("vector reduction not converged: %.3e", e.MaxError())
	}
	want := []float64{7.5, 77.5, 1} // means of 0..15, squares, ones
	est := estimateOf(e.Protocol(3))
	for k, w := range want {
		if math.Abs(est[k]-w)/w > 1e-12 {
			t.Fatalf("component %d = %.15g, want %.15g", k, est[k], w)
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	g := topology.Ring(5)
	e := NewScalar(g, pfProtos(5), someInputs(5), gossip.Average, 1)
	if e.N() != 5 || e.Graph() != g {
		t.Fatal("accessors")
	}
	e.Step()
	if e.Round() != 1 {
		t.Fatalf("Round = %d", e.Round())
	}
}

// Abrupt link failure loses in-flight messages; convergence still holds
// for PF (full edge reset) even when the failure lands mid-exchange.
func TestFailLinkAbrupt(t *testing.T) {
	g := topology.Hypercube(4)
	e := NewScalar(g, pfProtos(16), someInputs(16), gossip.Average, 3)
	e.Run(RunConfig{MaxRounds: 20})
	e.FailLinkAbrupt(0, 1)
	e.FailLinkAbrupt(0, 1) // idempotent
	res := e.Run(RunConfig{MaxRounds: 4000, Eps: 1e-12})
	if !res.Converged {
		t.Fatalf("PF did not converge after abrupt failure: %.3e", e.MaxError())
	}
	if got := e.Protocol(0).LiveNeighbors(); len(got) != 3 {
		t.Fatalf("live neighbors = %v", got)
	}
}

func TestDrainSkipsCrashedNodes(t *testing.T) {
	g := topology.Complete(4)
	e := NewScalar(g, pcfProtos(4), []float64{1, 2, 3, 4}, gossip.Average, 1)
	e.Step()
	e.CrashNode(2)
	e.Drain() // must not deliver to the dead node or panic
	if e.Alive(2) {
		t.Fatal("node 2 alive")
	}
}

// WithVectorScaleErrors: a vector reduction whose components span
// magnitudes converges under the scale criterion even though the tiny
// component's per-component relative error stays large.
func TestVectorScaleErrors(t *testing.T) {
	g := topology.Hypercube(4)
	n := g.N()
	mkInit := func() []gossip.Value {
		init := make([]gossip.Value, n)
		for i := range init {
			// Component 0 sums to ~n; component 1 cancels to a tiny
			// nonzero residue (1e-13), so its per-component relative
			// error is huge even when the absolute error is at noise
			// level.
			tiny := float64(i)
			if i%2 == 1 {
				tiny = -float64(i - 1)
			}
			if i == 0 {
				tiny = 1e-13
			}
			init[i] = gossip.Vector([]float64{1 + float64(i%5), tiny}, gossip.Sum.InitialWeight(i))
		}
		return init
	}
	// Per-component criterion: the near-zero component dominates and
	// the target is never reached.
	plain := New(g, pcfProtos(n), mkInit(), 2)
	resPlain := plain.Run(RunConfig{MaxRounds: 1500, Eps: 1e-12})
	if resPlain.Converged {
		t.Fatal("per-component criterion unexpectedly satisfied on a near-zero component")
	}
	// Scale criterion: converges (errors measured against the vector's
	// magnitude).
	scaled := New(g, pcfProtos(n), mkInit(), 2, WithVectorScaleErrors())
	resScaled := scaled.Run(RunConfig{MaxRounds: 1500, Eps: 1e-12})
	if !resScaled.Converged {
		t.Fatalf("scale criterion not reached: %.3e", scaled.MaxError())
	}
}
