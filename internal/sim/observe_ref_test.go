package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/flowupdate"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/pushsum"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

// The single-threaded probes the shard-parallel Observe pass replaced,
// kept as its reference: one ascending scan per quantity, reading the
// protocols through their allocating accessors.

// refErrors is Errors as one ascending scan.
func refErrors(e *Engine) []float64 {
	var errs []float64
	for i, p := range e.protos {
		if e.alive[i] {
			errs = append(errs, e.worstErr(estimateOf(p)))
		}
	}
	return errs
}

// refMassResidual sums every alive node's LocalValue in ascending id
// order with compensated summation.
func refMassResidual(e *Engine) (mass, inflight float64) {
	sums := make([]stats.Sum2, e.width)
	var wsum, w0 stats.Sum2
	for i, p := range e.protos {
		if !e.alive[i] {
			continue
		}
		w0.Add(e.init[i].W)
		v := localOf(p)
		wsum.Add(v.W)
		for k, x := range v.X {
			sums[k].Add(x)
		}
	}
	w := wsum.Value()
	for k, t := range e.targets {
		resid := math.Abs(sums[k].Value()/w-t) / math.Max(1, math.Abs(t))
		if math.IsNaN(resid) {
			mass = math.NaN()
			break
		}
		if resid > mass {
			mass = resid
		}
	}
	iw := w0.Value()
	inflight = math.Abs(iw-w) / math.Max(1, math.Abs(iw))
	return mass, inflight
}

// slotser is PCF's cloning per-edge slot accessor.
type slotser interface {
	Slots(neighbor int) ([2]gossip.Value, bool)
}

// refAntiSym counts, over every alive edge (i, j>i) of the overlay, the
// PCF slots that are not bitwise anti-symmetric with neither side zero,
// or the PF/FU flows that are not bitwise anti-symmetric; −1 for a
// protocol without flow state.
func refAntiSym(e *Engine) int {
	if len(e.protos) == 0 {
		return -1
	}
	switch e.protos[0].(type) {
	case slotser, gossip.Flows:
	default:
		return -1
	}
	count := 0
	for i, p := range e.protos {
		if !e.alive[i] {
			continue
		}
		for _, j32 := range e.neighbors(i) {
			j := int(j32)
			if j <= i || !e.alive[j] {
				continue
			}
			if si, ok := p.(slotser); ok {
				a, okA := si.Slots(j)
				b, okB := e.protos[j].(slotser).Slots(i)
				for s := 0; okA && okB && s < 2; s++ {
					if !a[s].Equal(b[s].Neg()) && !a[s].IsZero() && !b[s].IsZero() {
						count++
					}
				}
				continue
			}
			if !p.(gossip.Flows).Flow(j).Equal(e.protos[j].(gossip.Flows).Flow(i).Neg()) {
				count++
			}
		}
	}
	return count
}

// sameFloat is bitwise equality with every NaN equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// nonNaN returns the entries of xs that are numbers.
func nonNaN(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

// TestObserveMatchesSerialReference checks the shard-parallel Observe
// against the serial reference, every field bitwise, on the sequential
// engine and the layouts P ∈ {1, 2, 4} × {contiguous, cache-aware} plus
// an interleaved P = 3, for PCF (efficient and robust), push-flow, Flow
// Updating and push-sum: while running, after two links fail, after a
// crash, during a silent link outage plus a silent crash, and after
// Drain. The error quantiles must be stats.Quantile of the non-NaN
// errors, and every sample, quantiles included, must be identical
// across the phase-split layouts.
func TestObserveMatchesSerialReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := topology.Torus3D(6, 6, 6)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = math.Sqrt(float64(i + 2))
	}
	type layout struct {
		name string
		opts []EngineOption
	}
	layouts := []layout{{"sequential", nil}}
	for _, p := range []int{1, 2, 4} {
		layouts = append(layouts,
			layout{fmt.Sprintf("contiguous/P=%d", p), []EngineOption{WithShards(p)}},
			layout{fmt.Sprintf("cache-aware/P=%d", p), []EngineOption{WithPartition(topology.CacheAware(g, p))}})
	}
	// CacheAware cuts this torus into id ranges; an interleaved layout is
	// one whose shard order is not id order.
	interleaved := &topology.Partition{Shards: make([][]int32, 3)}
	for i := 0; i < n; i++ {
		interleaved.Shards[i%3] = append(interleaved.Shards[i%3], int32(i))
	}
	layouts = append(layouts, layout{"interleaved/P=3", []EngineOption{WithPartition(interleaved)}})
	for _, pc := range []struct {
		name string
		mk   func() gossip.Protocol
	}{
		{"pcf", func() gossip.Protocol { return core.NewEfficient() }},
		{"pcf-robust", func() gossip.Protocol { return core.NewRobust() }},
		{"pf", func() gossip.Protocol { return pushflow.New() }},
		{"fu", func() gossip.Protocol { return flowupdate.New() }},
		{"push-sum", func() gossip.Protocol { return pushsum.New() }},
	} {
		var first []metrics.Sample
		for _, lay := range layouts {
			label := pc.name + "/" + lay.name
			protos := make([]gossip.Protocol, n)
			for i := range protos {
				protos[i] = pc.mk()
			}
			e := NewScalar(g, protos, inputs, gossip.Average, 7, lay.opts...)
			rec := metrics.New(metrics.Config{Interval: 1 << 30})
			e.SetMetrics(rec)
			check := func(state string) {
				t.Helper()
				e.Observe()
				s, _ := rec.Last()
				errs := refErrors(e)
				mass, inflight := refMassResidual(e)
				want := []struct {
					field     string
					got, want float64
				}{
					{"MaxErr", float64(s.MaxErr), stats.Max(errs)},
					{"P50", float64(s.P50), stats.Quantile(nonNaN(errs), 0.5)},
					{"P90", float64(s.P90), stats.Quantile(nonNaN(errs), 0.9)},
					{"P99", float64(s.P99), stats.Quantile(nonNaN(errs), 0.99)},
					{"MassResidual", float64(s.MassResidual), mass},
					{"InFlight", float64(s.InFlight), inflight},
				}
				for _, w := range want {
					if !sameFloat(w.got, w.want) {
						t.Errorf("%s, %s: %s = %v, reference %v", label, state, w.field, w.got, w.want)
					}
				}
				if ref := refAntiSym(e); s.AntiSym != ref {
					t.Errorf("%s, %s: AntiSym = %d, reference %d", label, state, s.AntiSym, ref)
				}
				if s.Round != e.round || s.Counters != rec.Counters() {
					t.Errorf("%s, %s: round %d counters %v, engine round %d counters %v", label, state, s.Round, s.Counters, e.round, rec.Counters())
				}
			}
			steps := func(k int) {
				for range k {
					e.Step()
				}
			}
			steps(6)
			check("running")
			e.FailLink(0, 1)
			e.FailLink(40, 41)
			steps(5)
			check("links failed")
			e.CrashNode(30)
			steps(5)
			check("node crashed")
			e.SilenceLink(60, 61)
			e.CrashNodeSilent(90)
			steps(5)
			check("silent outage")
			e.RestoreLink(60, 61)
			steps(3)
			e.Drain()
			check("drained")
			if s, _ := rec.Last(); e.seq && pc.name != "push-sum" && s.AntiSym != 0 {
				t.Errorf("%s: %d anti-symmetry violations after Drain, want 0", label, s.AntiSym)
			}
			e.Close()
			if e.seq {
				continue
			}
			hist := rec.History()
			for k := range hist {
				hist[k].Counters[metrics.FreeListHits] = 0
				hist[k].Counters[metrics.FreeListMisses] = 0
			}
			if first == nil {
				first = hist
				continue
			}
			for k := range hist {
				if !sameSample(hist[k], first[k]) {
					t.Errorf("%s: sample %d differs from %s/contiguous/P=1:\n%+v\n%+v", label, k, pc.name, hist[k], first[k])
				}
			}
		}
	}
}

// sameSample compares two samples field by field, floats bitwise.
func sameSample(a, b metrics.Sample) bool {
	for _, f := range [][2]metrics.Float{
		{a.MaxErr, b.MaxErr}, {a.P50, b.P50}, {a.P90, b.P90}, {a.P99, b.P99},
		{a.MassResidual, b.MassResidual}, {a.InFlight, b.InFlight},
	} {
		if !sameFloat(float64(f[0]), float64(f[1])) {
			return false
		}
	}
	return a.Round == b.Round && a.AntiSym == b.AntiSym && a.Counters == b.Counters
}
