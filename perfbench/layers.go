package main

import (
	"runtime"
	"time"

	"pcfreduce/internal/checkpoint"
	"pcfreduce/internal/core"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/sim"
)

// layers collects what a traced run measured, per layer of the program;
// report turns it into the per-layer metrics. Every workload reports the
// same metric names, so a number that a workload does not exercise in
// its timed loop comes from a probe after the solve (see README.md).
type layers struct {
	n int

	// topology / sim set-up, one entry per traced set-up.
	build, partition, newEngine []time.Duration
	cutEdgeFrac                 float64

	// sim: per-call statistics over the traced solves.
	stepP50, stepTotal time.Duration
	errsP50, errsTotal time.Duration
	roundP95           time.Duration
	timing             metrics.TimingBank // flight recorder, merged over traced solves
	counters           metrics.Snapshot
	rounds             int // rounds summed over the traced solves

	// Walls: traced and untraced 2-shard solves, and the 1-shard leg.
	traced, untraced, oneShard []time.Duration
	coverage                   float64

	// metrics / checkpoint.
	observe, snapshot, encode []time.Duration
	observeTotal              time.Duration // inside the traced solves only
	snapshotBytes             int

	// fault and dmgs.
	extraRounds   int
	reductions    int // per solve
	reductionWall []time.Duration
	reductionRnds int // rounds summed over the reductions in reductionWall

	// Go runtime.
	allocsPerRound float64
	gcPause        time.Duration
}

func (l *layers) report(r *result) {
	tracedWall := total(l.traced)
	share := func(d time.Duration) float64 { return float64(d) / float64(tracedWall) }
	r.set("topology.build_ms", "ms", ms(median(l.build)))
	r.set("topology.partition_ms", "ms", ms(median(l.partition)))
	r.set("topology.cut_edge_frac", "ratio", l.cutEdgeFrac)
	r.set("sim.new_ms", "ms", ms(median(l.newEngine)))
	r.set("sim.step_ms_p50", "ms", ms(l.stepP50))
	r.set("sim.step_s_total", "s", l.stepTotal.Seconds())
	r.set("sim.round_ms_p95", "ms", ms(l.roundP95))
	r.set("sim.errors_ms_p50", "ms", ms(l.errsP50))
	r.set("sim.errors_s_total", "s", l.errsTotal.Seconds())
	r.set("sim.errors_share", "ratio", share(l.errsTotal))
	r.set("sim.activate_ms_p50", "ms", l.timing.Hist(metrics.PhaseActivate).Quantile(0.5)/1e6)
	r.set("sim.deliver_ms_p50", "ms", l.timing.Hist(metrics.PhaseDeliver).Quantile(0.5)/1e6)
	var barrier metrics.DurHist
	for _, p := range []metrics.Phase{metrics.PhaseBarrierActivate, metrics.PhaseBarrierDeliver, metrics.PhaseBarrierErrors} {
		barrier.Merge(l.timing.Hist(p))
	}
	r.set("sim.barrier_wait_ms_p50", "ms", barrier.Quantile(0.5)/1e6)
	// No interceptor runs here, so the serial merge at the round barrier
	// is the staged-event flush.
	r.set("sim.merge_ms_p50", "ms", l.timing.Hist(metrics.PhaseFlush).Quantile(0.5)/1e6)
	r.set("sim.msgs_sent_per_round", "msgs/round", float64(l.counters.Get(metrics.MsgsSent))/float64(l.rounds))
	r.set("sim.msgs_lost_per_round", "msgs/round", float64(l.counters.Get(metrics.MsgsLost))/float64(l.rounds))
	r.set("sim.parallel_efficiency", "ratio", float64(median(l.oneShard))/(shards*float64(median(l.untraced))))
	r.set("core.pair_exchange_ns", "ns", pairExchangeNs(1))
	r.set("core.pair_exchange_k16_ns", "ns", pairExchangeNs(16))
	r.set("metrics.observe_ms_p50", "ms", ms(median(l.observe)))
	r.set("metrics.observe_share", "ratio", share(l.observeTotal))
	r.set("checkpoint.snapshot_ms_p50", "ms", ms(median(l.snapshot)))
	r.set("checkpoint.encode_ms_p50", "ms", ms(median(l.encode)))
	r.set("checkpoint.bytes_per_node", "B", float64(l.snapshotBytes)/float64(l.n))
	r.set("fault.extra_rounds", "rounds", float64(l.extraRounds))
	r.set("dmgs.reductions", "count", float64(l.reductions))
	r.set("dmgs.rounds_per_reduction", "rounds", float64(l.reductionRnds)/float64(len(l.reductionWall)))
	r.set("dmgs.reduction_ms_p50", "ms", ms(median(l.reductionWall)))
	r.set("go.allocs_per_round", "allocs/round", l.allocsPerRound)
	r.set("go.gc_pause_ms_total", "ms", ms(l.gcPause))
	r.set("trace.overhead_ratio", "ratio", float64(median(l.traced))/float64(median(l.untraced)))
	r.set("trace.coverage", "ratio", l.coverage)
}

// recordTiming folds one traced solve's recorder into the layer totals.
func (l *layers) recordTiming(rec *metrics.Recorder) {
	tb := rec.MergedTiming()
	l.timing.Merge(&tb)
	c := rec.Counters()
	for k := range c {
		l.counters[k] += c[k]
	}
}

// probe times probes Engine.Observe calls and probes Engine.Snapshot +
// checkpoint.Encode pairs on a solved engine — the cost of observing or
// checkpointing this workload's engine, for workloads whose timed loop
// does neither.
func (l *layers) probe(eng *sim.Engine, rec *metrics.Recorder, probes int, tr *tracer) error {
	eng.SetMetrics(rec)
	root := tr.begin("probe")
	defer tr.end(root)
	for k := 0; k < probes; k++ {
		d, _ := timed(tr, "metrics.observe", func() error { eng.Observe(); return nil })
		l.observe = append(l.observe, d)
	}
	for k := 0; k < probes; k++ {
		if err := l.checkpoint(eng, tr); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint takes one snapshot and encodes it, timing both calls.
func (l *layers) checkpoint(eng *sim.Engine, tr *tracer) error {
	snap, enc, size, err := snapshotEncode(eng, tr)
	if err != nil {
		return err
	}
	l.snapshot = append(l.snapshot, snap)
	l.encode = append(l.encode, enc)
	l.snapshotBytes = size
	return nil
}

// snapshotEncode takes one engine snapshot and encodes it as a
// checkpoint, returning both call durations and the encoded size.
func snapshotEncode(eng *sim.Engine, tr *tracer) (snapD, encD time.Duration, size int, err error) {
	var snap *sim.Snapshot
	snapD, err = timed(tr, "checkpoint.snapshot", func() (err error) {
		snap, err = eng.Snapshot()
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var enc []byte
	encD, _ = timed(tr, "checkpoint.encode", func() error {
		enc = checkpoint.Encode(&checkpoint.Checkpoint{Snap: snap})
		return nil
	})
	return snapD, encD, len(enc), nil
}

// timed runs f inside a span and returns its duration.
func timed(tr *tracer, name string, f func() error) (time.Duration, error) {
	id := tr.begin(name)
	start := time.Now()
	err := f()
	d := time.Since(start)
	tr.end(id)
	return d, err
}

// pairExchangeNs returns the median time in ns of one FillMessage/Receive
// round trip between two connected core.NewEfficient nodes at the given
// value width — the protocol's per-message work without the engine.
func pairExchangeNs(width int) float64 {
	const iters, samples = 50000, 7
	a, b := core.NewEfficient(), core.NewEfficient()
	xa, xb := make([]float64, width), make([]float64, width)
	for k := range xa {
		xa[k], xb[k] = float64(k+1), float64(5*k+5)
	}
	a.Reset(0, []int32{1}, gossip.Vector(xa, 1))
	b.Reset(1, []int32{0}, gossip.Vector(xb, 1))
	var msg gossip.Message
	ds := make([]time.Duration, samples)
	for s := range ds {
		start := time.Now()
		for i := 0; i < iters; i++ {
			a.FillMessage(1, &msg)
			b.Receive(msg)
			b.FillMessage(0, &msg)
			a.Receive(msg)
		}
		ds[s] = time.Since(start)
	}
	return float64(median(ds)) / iters
}

// liveHeap forces a collection and returns the live heap size.
func liveHeap() uint64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.HeapAlloc
}

// memStats returns the runtime's cumulative allocation count and GC pause.
func memStats() (mallocs uint64, pause time.Duration) {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.Mallocs, time.Duration(st.PauseTotalNs)
}
