package sim

// Observation: the engine side of the zero-overhead metrics layer
// (internal/metrics). A nil recorder keeps every instrumented site a
// nil-receiver no-op — the hot round loop carries only an inlined nil
// check — and an attached recorder adds per-shard counter banks plus
// invariant probes that read the struct-of-arrays protocol state every
// K rounds without touching the per-message path.
//
// A probe is one fan-out on the shard worker pool (observeShard): each
// shard's task reads its own alive nodes — oracle error, local mass,
// flow anti-symmetry of the edges to higher-id neighbors — and writes
// only its padded shard block and its nodes' rows of the mass scratch.
// The serial merge sums those rows in ascending node id, the order of a
// single-threaded scan, and the error quantiles are exact order
// statistics, so every sample field is identical for every shard count
// and layout.

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
// manually. The oracle errors are scanned in the same fan-out as the
// invariant probes.
func (e *Engine) Observe() {
	if e.rec == nil {
		return
	}
	e.probe(true)
	e.record(e.mergeErrors())
}

// observe samples the engine with errs, the per-node oracle errors of
// this round that the caller (Run) has already scanned.
func (e *Engine) observe(errs []float64) {
	if e.rec == nil {
		return
	}
	e.probe(false)
	e.record(errs)
}

// probe runs observeShard on every shard, scanning the oracle errors
// into the shards' errs scratch too when scanErrs is set. The mass
// scratch is allocated here, on the first probe, so an engine that is
// never observed does not carry it.
func (e *Engine) probe(scanErrs bool) {
	n, w := len(e.protos), e.width
	if len(e.obsSum) != w || cap(e.obsW) < n {
		e.obsX = make([]float64, n*w)
		e.obsW = make([]float64, n)
		e.obsSum = make([]stats.Sum2, w)
	}
	e.obsX, e.obsW = e.obsX[:n*w], e.obsW[:n]
	e.shard.observeErrs = scanErrs
	e.runShards("observe", metrics.PhaseErrors, e.shard.observeTask)
}

// record builds one metrics.Sample from a finished probe: error
// quantiles over errs, the global mass-conservation residual, the
// in-flight weight fraction, the flow anti-symmetry violation count,
// and the merged counters.
func (e *Engine) record(errs []float64) {
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

// observeShard is shard s's probe task. For every alive node it owns,
// in ascending id order, it appends the node's oracle error to the
// shard's errs scratch (when the probe scans errors), writes the node's
// local mass into its scratch row, and counts the anti-symmetry
// violations of the node's edges to higher-id neighbors into the
// shard's block.
func (e *Engine) observeShard(s int) {
	l := &e.shard.local[s]
	scanErrs := e.shard.observeErrs
	if scanErrs {
		l.errs = l.errs[:0]
	}
	w := e.width
	anti := 0
	for _, i32 := range e.shard.nodes[s] {
		i := int(i32)
		if !e.alive[i] {
			continue
		}
		if scanErrs {
			l.errs = append(l.errs, e.nodeErr(i, l))
		}
		p := e.protos[i]
		l.mass.X = e.obsX[i*w : (i+1)*w : (i+1)*w]
		p.LocalValueInto(&l.mass)
		e.obsW[i] = l.mass.W
		anti += e.antiSymAt(i, p)
	}
	l.antiSym = anti
}

// massResidual probes the paper's Sec. II-A conservation invariant from
// the mass rows of the last probe, summed with compensated summation in
// ascending node id over the alive nodes. It reports two quantities:
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
	sums := e.obsSum
	for k := range sums {
		sums[k].Reset()
	}
	var wsum, w0 stats.Sum2
	width := e.width
	for i, alive := range e.alive {
		if !alive {
			continue
		}
		w0.Add(e.init[i].W)
		wsum.Add(e.obsW[i])
		for k, x := range e.obsX[i*width : (i+1)*width] {
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

// antiSymViolations sums the shards' anti-symmetry counts of the last
// probe: the edges whose flow state violates bitwise anti-symmetry
// f(j,i) = −f(i,j), the invariant every acknowledged flow exchange
// restores. Returns −1 when the protocol has no flows (push-sum).
//
// Violations are expected while exchanges are in flight; the probe is
// most meaningful after Drain on the sequential model (where it must be
// zero for flow protocols) and as a churn trend under failures.
func (e *Engine) antiSymViolations() int {
	if len(e.protos) == 0 {
		return -1
	}
	if _, flows, _ := e.protos[0].EdgeView(); flows == 0 {
		return -1
	}
	count := 0
	for s := range e.shard.local {
		count += e.shard.local[s].antiSym
	}
	return count
}

// antiSymAt counts the anti-symmetry violations on alive node i's links
// to alive higher-id neighbors j, comparing the flow slots of the two
// edge stores (gossip.EdgeStore.AntiSymViolations). For PCF each of the
// two per-edge slots is checked and a mismatch counts only when neither
// side is zero — a half-completed handshake legitimately has one side
// staged and the other empty. For PF/FU any mismatch counts: their
// exchange overwrites the mirror in one step, so a standing asymmetry
// is mass in flight or eviction skew. Overlay neighbors index the edge
// stores directly while the two agree; a neighbor row that has diverged
// from the store (rewires, leaves) falls back to the id lookup.
func (e *Engine) antiSymAt(i int, p gossip.Protocol) int {
	si, flows, exempt := p.EdgeView()
	if flows == 0 {
		return 0
	}
	count := 0
	for k, j32 := range e.neighbors(i) {
		j := int(j32)
		if j <= i || !e.alive[j] {
			continue
		}
		sj, fj, xj := e.protos[j].EdgeView()
		if fj != flows || xj != exempt {
			continue
		}
		ki := k
		if k >= si.Degree() || si.Neighbor(k) != j {
			ki = si.Edge(j)
		}
		kj := sj.Edge(i)
		if ki < 0 || kj < 0 {
			continue
		}
		count += si.AntiSymViolations(ki, sj, kj, flows, exempt)
	}
	return count
}
