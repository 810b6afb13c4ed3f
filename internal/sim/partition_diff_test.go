package sim_test

// Cross-path differential suite for the parallel executor: every
// combination of worker parallelism (GOMAXPROCS raised so the pool
// actually fans out, exercised under -race), shard count ∈ {1,2,3,8}
// and partitioner ∈ {contiguous, cache-aware} must produce
// byte-identical state to the sequential WithShards(1) reference, under
// a fault-free run, a silent-crash + transient-outage plan observed
// only through the failure detector (with and without a stateful
// interceptor), and an open-world churn plan with per-link loss. The topology is a heap-ordered binary tree — the
// family where the cache-aware BFS layout actually diverges from the
// contiguous one (on hypercubes it falls back) — plus a hypercube for
// the fallback path.

import (
	"fmt"
	"runtime"
	"testing"

	"pcfreduce/internal/detect"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// withParallelWorkers raises GOMAXPROCS for the duration of a test so
// the sharded engine's worker pool genuinely runs phase 1 on multiple
// goroutines even on a single-core host (the results are identical
// either way — that is the property under test; raising it makes the
// -race run exercise the real cross-goroutine paths).
func withParallelWorkers(t *testing.T, procs int) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// layoutVariants enumerates the executor configurations under test for
// a graph: every shard count with the contiguous layout and with the
// cache-aware partition.
func layoutVariants(g *topology.Graph) []struct {
	label string
	opt   sim.EngineOption
} {
	var out []struct {
		label string
		opt   sim.EngineOption
	}
	for _, p := range shardCounts {
		out = append(out, struct {
			label string
			opt   sim.EngineOption
		}{fmt.Sprintf("contiguous/P=%d", p), sim.WithShards(p)})
		pt := topology.CacheAware(g, p)
		out = append(out, struct {
			label string
			opt   sim.EngineOption
		}{fmt.Sprintf("%s/P=%d", pt.Stats.Strategy, p), sim.WithPartition(pt)})
	}
	return out
}

// TestPartitionDeterminismPlain: fault-free differential over both
// topologies, all four protocols, all layouts.
func TestPartitionDeterminismPlain(t *testing.T) {
	withParallelWorkers(t, 4)
	for _, g := range []*topology.Graph{topology.BinaryTree(63), topology.Hypercube(5)} {
		for _, tc := range allProtocols {
			t.Run(g.Name()+"/"+tc.name, func(t *testing.T) {
				n := g.N()
				inputs := make([]float64, n)
				for i := range inputs {
					inputs[i] = float64(3*i%11) + 0.25
				}
				ref := sim.NewScalar(g, fuzzProtos(n, tc.mk), inputs, gossip.Average, 7, sim.WithShards(1))
				want := fingerprintEngine(ref, 200, nil)
				for _, v := range layoutVariants(g) {
					eng := sim.NewScalar(g, fuzzProtos(n, tc.mk), inputs, gossip.Average, 7, v.opt)
					got := fingerprintEngine(eng, 200, nil)
					sameFingerprint(t, v.label+" vs sequential", want, got)
					eng.Close()
				}
			})
		}
	}
}

// TestPartitionDeterminismFaults: silent crash + transient outage,
// detector-observed, across all layouts on the tree topology (where the
// cache-aware layout is genuinely non-contiguous).
func TestPartitionDeterminismFaults(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(63)
	n := g.N()
	const crash = 9
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(5*i%13) + 0.5
	}
	mk := allProtocols[0].mk // PCF
	events := append(fault.LinkOutage(10, 120, 0, 1), fault.SilentNodeCrash(40, crash))

	build := func(opt sim.EngineOption) shardFingerprint {
		plan := fault.NewPlan(events...)
		eng := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 11,
			opt, sim.WithDetector(sim.DetectorConfig{Detect: detect.Config{Timeout: 30}}))
		defer eng.Close()
		return fingerprintEngine(eng, 400, plan.OnRound)
	}

	want := build(sim.WithShards(1))
	if want.stats.Suspicions == 0 {
		t.Fatal("reference run registered no suspicions — fault plan inert")
	}
	for _, v := range layoutVariants(g) {
		sameFingerprint(t, v.label+" vs sequential", want, build(v.opt))
	}
}

// TestPartitionDeterminismChurn: the open-world plan (joins, leaves,
// rewires, per-link loss) across all layouts — joins append to the last
// shard regardless of the layout, so churned runs stay byte-identical.
func TestPartitionDeterminismChurn(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(31)
	inputs := churnInputs(g.N())
	for _, tc := range allProtocols {
		t.Run(tc.name, func(t *testing.T) {
			plan := fault.ChurnSchedule(g, fault.ChurnOptions{Rounds: 60, Every: 6, Losses: 2}, 17)
			build := func(opt sim.EngineOption) *sim.Engine {
				e := sim.NewScalar(g, fuzzProtos(g.N(), tc.mk), inputs, gossip.Average, 17,
					sim.WithJoinFactory(tc.mk), opt)
				e.Run(sim.RunConfig{MaxRounds: 80, OnRound: plan.OnRound})
				e.Drain()
				return e
			}
			want := churnFingerprintOf(build(sim.WithShards(1)))
			for _, v := range layoutVariants(g) {
				e := build(v.opt)
				sameChurnFingerprint(t, v.label+" vs sequential", want, churnFingerprintOf(e))
				e.Close()
			}
		})
	}
}

// TestPartitionSnapshotRoundTrip proves snapshots are layout-agnostic:
// a snapshot taken mid-run on a cache-aware engine restores into a
// contiguous engine (different shard count, too) and continues
// byte-identically to the uninterrupted cache-aware run.
func TestPartitionSnapshotRoundTrip(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(63)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(7*i%17) + 0.125
	}
	mk := allProtocols[0].mk
	pt := topology.CacheAware(g, 8)
	if pt.Stats.Strategy != "bfs" {
		t.Fatal("expected a genuinely non-contiguous layout on the tree")
	}

	full := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 23, sim.WithPartition(pt))
	half := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 23, sim.WithPartition(pt))
	for r := 0; r < 100; r++ {
		full.Step()
		half.Step()
	}
	snap, err := half.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 100; r++ {
		full.Step()
	}
	want := fingerprintEngine(full, 0, nil)

	restored := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 99, sim.WithShards(3))
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := fingerprintEngine(restored, 100, nil)
	sameFingerprint(t, "restore into contiguous P=3 from bfs P=8", want, got)
}

// lossyTreeLinks installs per-link loss on a band of parent→child edges
// of a heap-ordered binary tree. The band spans shard boundaries under
// every layout in the grid, so dropped messages exercise each delivery
// task's own recycling path, and the per-directed-link loss streams are
// drawn from more than one task.
func lossyTreeLinks(e *sim.Engine) {
	for i := 0; i < 6; i++ {
		e.SetLinkLoss(i, 2*i+1, 0.25)
		e.SetLinkLoss(i, 2*i+2, 0.4)
	}
}

// deliveryInterceptors are the interception-pass cases of the delivery
// differential. Each factory builds fresh interceptor state per run and
// returns a probe of how much it did, so an inert case fails loudly.
// Compose and Window hide Replicator and Injector, so Duplicate and
// Reorder are installed bare.
var deliveryInterceptors = []struct {
	name string
	mk   func() (sim.Interceptor, func() int)
}{
	{"none", func() (sim.Interceptor, func() int) { return nil, nil }},
	{"loss+bitflip", func() (sim.Interceptor, func() int) {
		bf := fault.NewBoundedBitFlip(0.02, 42)
		return fault.Window(fault.Compose(fault.NewLoss(0.1, 41), bf), 0, 150), func() int { return bf.Flips }
	}},
	{"duplicate", func() (sim.Interceptor, func() int) {
		d := fault.NewDuplicate(0.1, 43)
		return d, func() int { return d.Dups }
	}},
	{"reorder", func() (sim.Interceptor, func() int) {
		r := fault.NewReorder(0.1, 44)
		return r, func() int { return r.Swaps }
	}},
}

// messageCounters are the recorder counters that must agree across
// layouts (free-list hits and misses follow per-shard pool occupancy,
// which is a layout artifact by design).
var messageCounters = []metrics.Counter{
	metrics.MsgsSent, metrics.MsgsDelivered, metrics.MsgsLost, metrics.MsgsDropped,
	metrics.Keepalives, metrics.Suspicions, metrics.Evictions, metrics.Reintegrations,
}

// TestDeliveryPathFaultsAndLoss: parallel phase-2 delivery must be
// byte-identical to the single-shard reference for every layout in the
// grid, with a fault plan observed
// through the detector AND per-link loss active — the configuration
// where the per-destination tasks draw from loss streams and fold
// keepalives concurrently — with no interceptor and with each stateful
// interceptor, whose calls the serial interception pass must issue in
// the same order on every layout. Message counters must agree too, and
// account for every message sent exactly once.
func TestDeliveryPathFaultsAndLoss(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(63)
	n := g.N()
	const crash = 9
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(5*i%13) + 0.5
	}
	mk := allProtocols[0].mk // PCF
	events := append(fault.LinkOutage(10, 120, 0, 1), fault.SilentNodeCrash(40, crash))

	for _, ic := range deliveryInterceptors {
		t.Run(ic.name, func(t *testing.T) {
			build := func(opts ...sim.EngineOption) (shardFingerprint, metrics.Snapshot, int) {
				plan := fault.NewPlan(events...)
				eng := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 11,
					append(opts, sim.WithDetector(sim.DetectorConfig{Detect: detect.Config{Timeout: 30}}))...)
				defer eng.Close()
				lossyTreeLinks(eng)
				rec := metrics.New(metrics.Config{Interval: 1 << 30})
				eng.SetMetrics(rec)
				icpt, activity := ic.mk()
				eng.SetInterceptor(icpt)
				fp := fingerprintEngine(eng, 300, plan.OnRound)
				acts := 0
				if activity != nil {
					acts = activity()
				}
				return fp, rec.Counters(), acts
			}
			sameCounters := func(label string, want, got metrics.Snapshot) {
				t.Helper()
				for _, c := range messageCounters {
					if want.Get(c) != got.Get(c) {
						t.Fatalf("%s: %v = %d, want %d", label, c, got.Get(c), want.Get(c))
					}
				}
			}

			want, wantC, acts := build(sim.WithShards(1))
			if want.stats.Suspicions == 0 {
				t.Fatal("reference run registered no suspicions — fault plan inert")
			}
			if ic.name != "none" && acts == 0 {
				t.Fatal("reference run's interceptor never acted — case inert")
			}
			sent := wantC.Get(metrics.MsgsSent) + wantC.Get(metrics.Keepalives)
			if acct := wantC.Get(metrics.MsgsDelivered) + wantC.Get(metrics.MsgsLost) + wantC.Get(metrics.MsgsDropped); acct != sent {
				t.Fatalf("sent+keepalives = %d, delivered+lost+dropped = %d", sent, acct)
			}
			for _, v := range layoutVariants(g) {
				got, gotC, _ := build(v.opt)
				sameFingerprint(t, v.label+"/parallel vs sequential", want, got)
				sameCounters(v.label+"/parallel vs sequential", wantC, gotC)
			}
		})
	}
}

// TestDeliveryPathBatched: the same parallel-delivery differential at
// value width k ∈ {1, 16} under per-link loss — wide
// messages make the per-destination recycling and inbox appends carry
// real payloads, and a k=16 run amplifies any divergence to 16
// components per node.
func TestDeliveryPathBatched(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(63)
	n := g.N()
	mk := allProtocols[0].mk
	for _, k := range []int{1, 16} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			build := func(opts ...sim.EngineOption) shardFingerprint {
				eng := sim.New(g, fuzzProtos(n, mk), batchInputs(n, k), 13, opts...)
				defer eng.Close()
				lossyTreeLinks(eng)
				return fingerprintEngine(eng, 150, nil)
			}
			want := build(sim.WithShards(1))
			for _, v := range layoutVariants(g) {
				sameFingerprint(t, v.label+"/parallel vs sequential", want, build(v.opt))
			}
		})
	}
}

// TestDeliveryPathChurn: open-world churn (joins, leaves, rewires,
// per-link loss on a changing overlay) across the layout grid —
// teardown resyncs and roster changes land between rounds, so the per-destination tasks must see
// exactly the membership the sequential reference saw.
func TestDeliveryPathChurn(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(31)
	inputs := churnInputs(g.N())
	mk := allProtocols[0].mk
	plan0 := func() *fault.Plan {
		return fault.ChurnSchedule(g, fault.ChurnOptions{Rounds: 60, Every: 6, Losses: 2}, 17)
	}
	build := func(opts ...sim.EngineOption) *sim.Engine {
		e := sim.NewScalar(g, fuzzProtos(g.N(), mk), inputs, gossip.Average, 17,
			append(opts, sim.WithJoinFactory(mk))...)
		e.Run(sim.RunConfig{MaxRounds: 80, OnRound: plan0().OnRound})
		e.Drain()
		return e
	}
	want := churnFingerprintOf(build(sim.WithShards(1)))
	for _, v := range layoutVariants(g) {
		e := build(v.opt)
		sameChurnFingerprint(t, v.label+"/parallel vs sequential", want, churnFingerprintOf(e))
		e.Close()
	}
}

// TestDeliverySnapshotRoundTrip crosses the second barrier with a
// snapshot: a run with per-link loss active is snapshotted mid-run on a
// cache-aware engine, restored into a contiguous engine (different
// shard count, different seed at construction), and must continue
// byte-identically to the uninterrupted run — the directed loss-stream
// table in the snapshot is what makes the reordered draws land
// identically on both sides.
func TestDeliverySnapshotRoundTrip(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.BinaryTree(63)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(7*i%19) + 0.375
	}
	mk := allProtocols[0].mk
	pt := topology.CacheAware(g, 8)
	if pt.Stats.Strategy != "bfs" {
		t.Fatal("expected a genuinely non-contiguous layout on the tree")
	}

	full := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 29, sim.WithPartition(pt))
	half := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 29, sim.WithPartition(pt))
	defer full.Close()
	defer half.Close()
	lossyTreeLinks(full)
	lossyTreeLinks(half)
	for r := 0; r < 60; r++ {
		full.Step()
		half.Step()
	}
	snap, err := half.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 60; r++ {
		full.Step()
	}
	want := fingerprintEngine(full, 0, nil)

	restored := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 99,
		sim.WithShards(3))
	defer restored.Close()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := fingerprintEngine(restored, 60, nil)
	sameFingerprint(t, "restore into contiguous P=3 from bfs P=8", want, got)
}

// TestEngineCloseAndReuse: Close is idempotent and a closed engine
// transparently restarts its worker pool on the next parallel round.
func TestEngineCloseAndReuse(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.Hypercube(4)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i)
	}
	mk := allProtocols[0].mk
	eng := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 3, sim.WithShards(4))
	want := fingerprintEngine(eng, 50, nil)
	eng.Close()
	eng.Close() // idempotent
	eng.Reset(3)
	got := fingerprintEngine(eng, 50, nil) // pool restarts lazily
	sameFingerprint(t, "after Close+Reset", want, got)
	eng.Close()
}

// TestResetWithInputs: ResetWithInputs must behave exactly like a
// freshly constructed engine with the new inputs — including when the
// value width changes between reductions (the batched-caller pattern).
func TestResetWithInputs(t *testing.T) {
	withParallelWorkers(t, 4)
	g := topology.Hypercube(4)
	n := g.N()
	mk := allProtocols[0].mk

	makeInit := func(width int, salt float64) []gossip.Value {
		init := make([]gossip.Value, n)
		for i := range init {
			v := gossip.NewValue(width)
			for k := range v.X {
				v.X[k] = salt + float64(i*width+k)
			}
			v.W = gossip.Average.InitialWeight(i)
			init[i] = v
		}
		return init
	}

	reused := sim.New(g, fuzzProtos(n, mk), makeInit(2, 0.5), 5, sim.WithShards(4))
	fingerprintEngine(reused, 60, nil) // advance, then rewind with new inputs

	for trial, width := range []int{2, 5, 1} {
		seed := int64(100 + trial)
		init := makeInit(width, float64(trial)+0.25)
		reused.ResetWithInputs(seed, init)
		fresh := sim.New(g, fuzzProtos(n, mk), init, seed, sim.WithShards(4))
		wantFP := fingerprintEngine(fresh, 120, nil)
		gotFP := fingerprintEngine(reused, 120, nil)
		sameFingerprint(t, fmt.Sprintf("width=%d reuse vs fresh", width), wantFP, gotFP)
	}
	reused.Close()
}
