package sim_test

// Flight-recorder contract tests: the staged-event ordering guarantee
// (metrics.Recorder.RecordEvents' contract) and the observation-
// transparency guarantee (enabling phase timing and span tracing must
// not change a single bit of protocol state, samples or events).

import (
	"fmt"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/detect"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// staged reports whether an event kind is one the sharded executor
// stages per shard during phase 1 (detector transitions emitted inside
// activations) rather than recording directly between rounds.
func staged(k metrics.EventKind) bool {
	return k == metrics.EvLinkEvicted || k == metrics.EvLinkReintegrated
}

// TestShardEventFlushOrder pins the ordering contract documented on
// metrics.Recorder.RecordEvents: within one round, phase-1-staged
// events reach the ring sorted by ascending emitting-node id, for
// every layout — including the cache-aware BFS partition, where shard
// buffers hold non-contiguous id ranges and the flush must k-way-merge
// them. The recorded stream must therefore be identical across the
// sequential reference, the contiguous layout and the BFS layout.
//
// Two silent node crashes at the same round make several spread-out
// neighbors evict their dead link in the same detector scan, so the
// same round's staging buffers hold events from multiple shards.
func TestShardEventFlushOrder(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(63)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(5*i%13) + 0.5
	}
	mk := func() gossip.Protocol { return core.NewEfficient() }
	// Heap order: node 9's neighbors are {4, 19, 20}, node 28's are
	// {13, 57, 58} — six evictors scattered across the tree.
	events := []fault.Event{fault.SilentNodeCrash(40, 9), fault.SilentNodeCrash(40, 28)}

	do := func(opt sim.EngineOption) []metrics.Event {
		rec := metrics.New(metrics.Config{Shards: 4, Interval: 50})
		plan := fault.NewPlan(events...)
		e := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 11,
			opt, sim.WithDetector(sim.DetectorConfig{Detect: detect.Config{Timeout: 30}}))
		defer e.Close()
		e.SetMetrics(rec)
		e.Run(sim.RunConfig{MaxRounds: 150, OnRound: plan.OnRound})
		return rec.Events()
	}

	pt := topology.CacheAware(g, 4)
	if pt.Stats.Strategy != "bfs" {
		t.Fatal("expected a genuinely non-contiguous layout on the tree")
	}
	want := do(sim.WithShards(1))

	// The scenario must be non-vacuous: staged events exist, and under
	// the BFS layout they originate from more than one shard, so the
	// flush genuinely interleaves buffers.
	shardOf := make([]int, n)
	for s, nodes := range pt.Shards {
		for _, i := range nodes {
			shardOf[i] = s
		}
	}
	evictions := 0
	originShards := map[int]bool{}
	for _, ev := range want {
		if ev.Kind == metrics.EvLinkEvicted {
			evictions++
			originShards[shardOf[ev.A]] = true
		}
	}
	if evictions < 4 {
		t.Fatalf("only %d evictions — fault plan too inert to test flush order", evictions)
	}
	if len(originShards) < 2 {
		t.Fatalf("all evictions from one BFS shard (%v) — ordering check vacuous", originShards)
	}

	// Staged events must ascend by emitting node within each round.
	checkOrder := func(label string, evs []metrics.Event) {
		lastRound, lastA := -1, -1
		for _, ev := range evs {
			if !staged(ev.Kind) {
				continue
			}
			if ev.Round != lastRound {
				lastRound, lastA = ev.Round, -1
			}
			if ev.A < lastA {
				t.Fatalf("%s: round %d staged event from node %d after node %d",
					label, ev.Round, ev.A, lastA)
			}
			lastA = ev.A
		}
	}
	checkOrder("sequential", want)

	for _, v := range []struct {
		label string
		opt   sim.EngineOption
	}{
		{"contiguous/P=4", sim.WithShards(4)},
		{"bfs/P=4", sim.WithPartition(pt)},
	} {
		got := do(v.opt)
		checkOrder(v.label, got)
		if len(got) != len(want) {
			t.Fatalf("%s: %d events, want %d", v.label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: event %d = %+v, want %+v", v.label, i, got[i], want[i])
			}
		}
	}
}

// TestTimingTransparent is the engine half of the zero-overhead
// contract: switching the flight recorder on (timing histograms AND a
// span timeline) must not perturb one bit of protocol state, nor the
// recorded samples and events — under faults, a detector, and both
// partition layouts. The timing run must actually record: phase stats
// and timeline spans must be non-empty, or the differential is vacuous.
func TestTimingTransparent(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(63)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(5*i%13) + 0.5
	}
	mk := func() gossip.Protocol { return core.NewEfficient() }
	events := append(fault.LinkOutage(10, 120, 0, 1), fault.SilentNodeCrash(40, 9))

	type run struct {
		fp     shardFingerprint
		hist   []metrics.Sample
		events []metrics.Event
		stats  []metrics.PhaseStat
		spans  int
	}
	do := func(timing bool, opts ...sim.EngineOption) run {
		rec := metrics.New(metrics.Config{Shards: 4, Interval: 10, Timing: timing})
		plan := fault.NewPlan(events...)
		e := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 11,
			append(opts, sim.WithDetector(sim.DetectorConfig{Detect: detect.Config{Timeout: 30}}))...)
		defer e.Close()
		e.SetMetrics(rec)
		var tl *metrics.Timeline
		if timing {
			tl = metrics.NewTimeline(4)
			e.SetTimeline(tl)
		}
		// Run (not bare Step) so the recorder samples at its cadence —
		// the sample stream is part of the differential.
		e.Run(sim.RunConfig{MaxRounds: 150, OnRound: plan.OnRound})
		r := run{fp: fingerprintEngine(e, 0, nil), hist: rec.History(),
			events: rec.Events(), stats: rec.PhaseStats()}
		for _, track := range tl.Spans() {
			r.spans += len(track)
		}
		return r
	}

	for _, v := range []struct {
		label string
		opts  []sim.EngineOption
	}{
		{"sequential/P=1", []sim.EngineOption{sim.WithShards(1)}},
		{"contiguous/P=4", []sim.EngineOption{sim.WithShards(4)}},
		{"bfs/P=4", []sim.EngineOption{sim.WithPartition(topology.CacheAware(g, 4))}},
	} {
		t.Run(v.label, func(t *testing.T) {
			off := do(false, v.opts...)
			on := do(true, v.opts...)
			sameFingerprint(t, "timing on vs off", off.fp, on.fp)
			if len(off.hist) == 0 || len(off.hist) != len(on.hist) {
				t.Fatalf("sample counts differ: off=%d on=%d", len(off.hist), len(on.hist))
			}
			for i := range off.hist {
				if off.hist[i] != on.hist[i] {
					t.Errorf("sample %d differs:\n off: %+v\n on:  %+v", i, off.hist[i], on.hist[i])
				}
			}
			if len(off.events) != len(on.events) {
				t.Fatalf("event counts differ: off=%d on=%d", len(off.events), len(on.events))
			}
			for i := range off.events {
				if off.events[i] != on.events[i] {
					t.Errorf("event %d differs: %+v vs %+v", i, off.events[i], on.events[i])
				}
			}
			if len(off.stats) != 0 {
				t.Errorf("timing-off recorder produced phase stats: %+v", off.stats)
			}
			if len(on.stats) == 0 {
				t.Error("timing run recorded no phase stats — differential vacuous")
			}
			if on.spans == 0 {
				t.Error("timing run recorded no timeline spans — differential vacuous")
			}
		})
	}
}

// TestTimelineSpanAccounting runs a timeline-only trace (no recorder at
// all — the flight attaches with just the span sink) and pins the span
// population against the executor's code structure: one task slice per
// (phase, shard, round) for the three fan-outs, one flush and one round
// slice per round, rounds marked on the time axis, and every span
// well-formed.
func TestTimelineSpanAccounting(t *testing.T) {
	withParallelWorkers(t, 4)
	const shards, rounds = 2, 40
	e := metricsEngine(func() gossip.Protocol { return core.NewEfficient() }, 5, 3,
		sim.WithShards(shards))
	defer e.Close()
	tl := metrics.NewTimeline(shards)
	e.SetTimeline(tl)
	for r := 0; r < rounds; r++ {
		e.Step()
		e.Errors()
	}

	if got := tl.Workers(); got != shards {
		t.Fatalf("timeline has %d tracks, want %d", got, shards)
	}
	perPhase := map[string]int{}
	for _, track := range tl.Spans() {
		for _, s := range track {
			perPhase[s.Phase.String()]++
			if s.DurNs < 0 || s.StartNs < 0 {
				t.Fatalf("negative span time: %+v", s)
			}
			// Errors() runs after Step advanced the round counter, so its
			// fan-out for round r-1 is stamped r — hence the inclusive cap.
			if s.Round < 0 || s.Round > rounds {
				t.Fatalf("span round out of range: %+v", s)
			}
			if s.Shard < -1 || s.Shard >= shards {
				t.Fatalf("span shard out of range: %+v", s)
			}
		}
	}
	for _, want := range []struct {
		phase string
		count int
	}{
		{"activate", shards * rounds},
		{"deliver", shards * rounds},
		{"errors", shards * rounds},
		{"flush", rounds},
		{"round", rounds},
		{"wall-activate", rounds},
		{"wall-deliver", rounds},
		{"wall-errors", rounds},
	} {
		if got := perPhase[want.phase]; got != want.count {
			t.Errorf("%d %q spans, want %d (all: %v)", got, want.phase, want.count, perPhase)
		}
	}
	if _, ok := tl.RoundTime(0); !ok {
		t.Error("no rounds marked on the time axis")
	}
	if ns0, _ := tl.RoundTime(0); ns0 < 0 {
		t.Error("round 0 marked before the epoch")
	}
	last, _ := tl.RoundTime(rounds - 1)
	first, _ := tl.RoundTime(0)
	if last < first {
		t.Errorf("round marks not monotone: round %d at %dns < round 0 at %dns", rounds-1, last, first)
	}
}

// TestFlightDetachAndReset pins the lifecycle: detaching the timeline
// (SetTimeline(nil)) stops span recording, and Reset detaches both
// sinks like it does recorders — per-trial state never leaks across
// trials.
func TestFlightDetachAndReset(t *testing.T) {
	withParallelWorkers(t, 4)
	e := metricsEngine(func() gossip.Protocol { return core.NewEfficient() }, 4, 1,
		sim.WithShards(2))
	defer e.Close()
	tl := metrics.NewTimeline(2)
	e.SetTimeline(tl)
	for r := 0; r < 5; r++ {
		e.Step()
	}
	count := func() int {
		n := 0
		for _, track := range tl.Spans() {
			n += len(track)
		}
		return n
	}
	before := count()
	if before == 0 {
		t.Fatal("no spans recorded while attached")
	}
	e.SetTimeline(nil)
	for r := 0; r < 5; r++ {
		e.Step()
	}
	if got := count(); got != before {
		t.Errorf("detached timeline still recorded: %d → %d spans", before, got)
	}

	tl2 := metrics.NewTimeline(2)
	e.SetTimeline(tl2)
	e.Reset(1)
	if e.Timeline() != nil {
		t.Error("Reset did not detach the timeline")
	}
	for r := 0; r < 5; r++ {
		e.Step()
	}
	for _, track := range tl2.Spans() {
		if len(track) != 0 {
			t.Fatalf("timeline attached before Reset recorded %d spans after it", len(track))
		}
	}
}

// TestTimingShardCountInvariantHistograms checks a structural property
// of the merged histograms rather than wall-clock values (which are
// machine noise): for any shard count, every round records exactly one
// observation per (fan-out, shard) and one per serial section, so the
// merged per-phase counts are a pure function of (rounds, shards).
func TestTimingShardCountInvariantHistograms(t *testing.T) {
	withParallelWorkers(t, 4)
	const rounds = 30
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("P=%d", shards), func(t *testing.T) {
			rec := metrics.New(metrics.Config{Shards: shards, Interval: 1 << 30, Timing: true})
			e := metricsEngine(func() gossip.Protocol { return core.NewEfficient() }, 5, 3,
				sim.WithShards(shards))
			defer e.Close()
			e.SetMetrics(rec)
			for r := 0; r < rounds; r++ {
				e.Step()
			}
			merged := rec.MergedTiming()
			for _, want := range []struct {
				phase metrics.Phase
				count uint64
			}{
				{metrics.PhaseActivate, uint64(shards * rounds)},
				{metrics.PhaseDeliver, uint64(shards * rounds)},
				{metrics.PhaseFlush, rounds},
				{metrics.PhaseRound, rounds},
				{metrics.PhaseWallActivate, rounds},
				{metrics.PhaseWallDeliver, rounds},
			} {
				if got := merged.Hist(want.phase).Count; got != want.count {
					t.Errorf("phase %v: %d observations, want %d", want.phase, got, want.count)
				}
			}
			// Quantiles must sit inside the observed range.
			h := merged.Hist(metrics.PhaseActivate)
			for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
				v := h.Quantile(q)
				if v < float64(h.MinNs) || v > float64(h.MaxNs) {
					t.Errorf("q%.2f = %g outside [%d, %d]", q, v, h.MinNs, h.MaxNs)
				}
			}
		})
	}
}
