package sim

// Observation: the engine side of the zero-overhead metrics layer
// (internal/metrics). A nil recorder keeps every instrumented site a
// nil-receiver no-op — the hot round loop carries only an inlined nil
// check — and an attached recorder adds per-shard counter banks plus
// invariant probes that read the struct-of-arrays protocol state every
// K rounds without touching the per-message path.

import (
	"math"

	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/stats"
)

// SetMetrics attaches a metrics recorder to the engine (nil detaches).
// Counters are banked per shard and merged only when a sample is taken,
// so observation never introduces cross-shard write sharing — phase-1
// tasks write their own shard's bank and phase-2 delivery tasks write
// their destination shard's; trace events emitted during the parallel
// activation phase are staged per shard and flushed at the round
// barrier in ascending emitting-node order (flushShardEvents), keeping
// the recorded stream byte-identical for every shard count and layout.
// Reset clears the attachment — recorders are per-trial state, exactly
// like interceptors.
func (e *Engine) SetMetrics(rec *metrics.Recorder) {
	e.rec = rec
	if rec == nil {
		e.updateFlight()
		return
	}
	rec.EnsureBanks(e.shards)
	if e.probeSums == nil {
		e.probeSums = make([]stats.Sum2, e.width)
		e.probeVal = gossip.NewValue(e.width)
	}
	e.updateFlight()
}

// Metrics returns the attached recorder (nil when metrics are disabled).
func (e *Engine) Metrics() *metrics.Recorder { return e.rec }

// SetTimeline attaches a span timeline (nil detaches): every phase task
// of the sharded round records a slice on its worker's track, for
// metrics.TimelineWriter's Perfetto export. Like recorders, timelines
// are per-trial state cleared by Reset. Span recording allocates
// (append), so attach one only for explicitly requested trace runs —
// this is the one observability feature that is NOT free when on,
// though like all the others it never perturbs results.
func (e *Engine) SetTimeline(tl *metrics.Timeline) {
	e.timeline = tl
	e.updateFlight()
}

// Timeline returns the attached timeline (nil when span tracing is off).
func (e *Engine) Timeline() *metrics.Timeline { return e.timeline }

// updateFlight derives the flight-recorder attachment from the current
// (recorder, timeline) pair: non-nil only under the phase-split model
// when the recorder has timing enabled or a timeline is attached. Both
// SetMetrics and SetTimeline funnel through here, so the hot path's
// e.flight nil check stays the single source of truth for "is any
// phase timing on".
func (e *Engine) updateFlight() {
	e.flight = nil
	if e.seq {
		return
	}
	timing := e.rec.TimingEnabled()
	if !timing && e.timeline == nil {
		return
	}
	if timing {
		e.rec.EnsureTiming(e.shards)
	}
	e.timeline.EnsureWorkers(e.shards)
	e.flight = &flight{rec: e.rec, tl: e.timeline}
}

// noteEvent records a trace event. During phase-split phase 1 the event
// is staged in the emitting node's shard buffer (flushed at the round
// barrier in ascending node order — see flushShardEvents); everywhere
// else — the sequential round loop and the fault-injection methods,
// which run between rounds — it goes straight into the recorder's ring.
// No-op without a recorder.
func (e *Engine) noteEvent(ev metrics.Event) {
	if e.rec == nil {
		return
	}
	if e.inPhase1 && ev.A >= 0 {
		l := &e.shard.local[e.shard.shardOf[ev.A]]
		l.events = append(l.events, ev)
		return
	}
	e.rec.RecordEvent(ev)
}

// Observe takes a metrics sample of the current engine state
// immediately, regardless of the recorder's sampling interval. No-op
// without an attached recorder. Run calls observe automatically at the
// recorder's cadence; Observe is for callers stepping the engine
// manually.
func (e *Engine) Observe() {
	if e.rec == nil {
		return
	}
	e.observe(e.Errors())
}

// observe computes one metrics.Sample from the current state: error
// quantiles over errs (the per-node oracle errors for this round), the
// global mass-conservation residual, the in-flight weight fraction, the
// flow anti-symmetry violation count, and the merged counters.
func (e *Engine) observe(errs []float64) {
	if e.rec == nil {
		return
	}
	p50, p90, p99 := e.rec.ErrQuantiles(errs)
	mass, inflight := e.massResidual()
	s := metrics.Sample{
		Round:        e.round,
		MaxErr:       metrics.Float(stats.Max(errs)),
		P50:          metrics.Float(p50),
		P90:          metrics.Float(p90),
		P99:          metrics.Float(p99),
		MassResidual: metrics.Float(mass),
		InFlight:     metrics.Float(inflight),
		AntiSym:      e.antiSymViolations(),
		Counters:     e.rec.Counters(),
	}
	e.rec.RecordSample(s)
}

// massResidual probes the paper's Sec. II-A conservation invariant from
// the live protocol state. It sums every alive node's local mass with
// compensated summation and reports two quantities:
//
//   - mass: the worst per-component relative deviation of the *ratio*
//     estimate Σx_k/Σw from the oracle target. The ratio form is the
//     robust invariant: mass sitting in unacknowledged flow exchanges
//     moves x and w together, so the ratio stays conserved (≤ a few
//     ulps for PCF; drifting for push-sum under loss) even while raw
//     component sums churn by whole node-shares between rounds.
//
//   - inflight: the relative deviation of the summed weight from the
//     initial alive weight — exactly that churn, i.e. how much mass is
//     riding in unacknowledged exchanges right now.
func (e *Engine) massResidual() (mass, inflight float64) {
	if e.probeSums == nil {
		e.probeSums = make([]stats.Sum2, e.width)
		e.probeVal = gossip.NewValue(e.width)
	}
	sums := e.probeSums
	for k := range sums {
		sums[k].Reset()
	}
	var wsum, w0 stats.Sum2
	for i, p := range e.protos {
		if !e.alive[i] {
			continue
		}
		w0.Add(e.init[i].W)
		v := e.probeVal
		if mr, ok := p.(gossip.MassReader); ok {
			mr.LocalValueInto(&e.probeVal)
			v = e.probeVal
		} else {
			v = p.LocalValue()
		}
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

// antiSymViolations counts edges whose flow state violates bitwise
// anti-symmetry f(j,i) = −f(i,j), the invariant every acknowledged
// flow exchange restores. For PCF (gossip.SlotsViewer) each of the two
// per-edge slots is checked and a mismatch counts only when neither
// side is zero — a half-completed handshake legitimately has one side
// staged and the other empty. For PF/FU (gossip.FlowViewer) any
// mismatch counts: their exchange overwrites the mirror in one step,
// so a standing asymmetry is mass in flight or eviction skew. Returns
// −1 when the protocol exposes no flow state (e.g. push-sum).
//
// Violations are expected while exchanges are in flight; the probe is
// most meaningful after Drain on the sequential model (where it must be
// zero for flow protocols) and as a churn trend under failures.
func (e *Engine) antiSymViolations() int {
	n := len(e.protos)
	if n == 0 {
		return -1
	}
	switch e.protos[0].(type) {
	case gossip.SlotsViewer, gossip.FlowViewer:
	default:
		return -1
	}
	count := 0
	for i := 0; i < n; i++ {
		if !e.alive[i] {
			continue
		}
		si, isSlots := e.protos[i].(gossip.SlotsViewer)
		fi, isFlow := e.protos[i].(gossip.FlowViewer)
		if !isSlots && !isFlow {
			continue
		}
		for _, j32 := range e.neighbors(i) {
			j := int(j32)
			if j <= i || !e.alive[j] {
				continue
			}
			if isSlots {
				sj, ok := e.protos[j].(gossip.SlotsViewer)
				if !ok {
					continue
				}
				a, okA := si.SlotViews(j)
				b, okB := sj.SlotViews(i)
				if !okA || !okB {
					continue
				}
				for s := 0; s < 2; s++ {
					if !a[s].EqualNeg(b[s]) && !a[s].IsZero() && !b[s].IsZero() {
						count++
					}
				}
				continue
			}
			fj, ok := e.protos[j].(gossip.FlowViewer)
			if !ok {
				continue
			}
			a, okA := fi.FlowView(j)
			b, okB := fj.FlowView(i)
			if !okA || !okB {
				continue
			}
			if !a.EqualNeg(b) {
				count++
			}
		}
	}
	return count
}
