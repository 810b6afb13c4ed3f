package sim_test

import (
	"runtime"
	"testing"
	"time"

	"pcfreduce/internal/core"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/pushsum"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// The simulator hot-path benchmarks: one op is one full round (Step +
// the per-round Errors scan the Run loop performs) on an n=1024
// hypercube — the steady-state cost of every figure sweep.
// Run with -benchmem; the steady-state path is expected to be
// allocation-free (0 allocs/op up to the rare inbox-growth round).

func benchStep(b *testing.B, mk func() gossip.Protocol) {
	g := topology.Hypercube(10) // 1024 nodes
	n := g.N()
	protos := make([]gossip.Protocol, n)
	for i := range protos {
		protos[i] = mk()
	}
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i%97) + 0.5
	}
	e := sim.NewScalar(g, protos, inputs, gossip.Average, 1)
	// Warm up: let inboxes and internal buffers reach steady-state size.
	for r := 0; r < 32; r++ {
		e.Step()
		e.Errors()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.Errors()
	}
}

func BenchmarkRoundPCFHypercube1024(b *testing.B) {
	benchStep(b, func() gossip.Protocol { return core.NewEfficient() })
}

func BenchmarkRoundPCFRobustHypercube1024(b *testing.B) {
	benchStep(b, func() gossip.Protocol { return core.NewRobust() })
}

func BenchmarkRoundPushFlowHypercube1024(b *testing.B) {
	benchStep(b, func() gossip.Protocol { return pushflow.New() })
}

func BenchmarkRoundPushSumHypercube1024(b *testing.B) {
	benchStep(b, func() gossip.Protocol { return pushsum.New() })
}

// BenchmarkTrialReuse measures one full short trial (40 rounds) per op on
// a reused engine — the per-trial cost of the parallel sweep runner.
func BenchmarkTrialReuse(b *testing.B) {
	g := topology.Hypercube(6)
	n := g.N()
	protos := make([]gossip.Protocol, n)
	for i := range protos {
		protos[i] = core.NewEfficient()
	}
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i%13) + 0.25
	}
	e := sim.NewScalar(g, protos, inputs, gossip.Average, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(int64(i))
		e.Run(sim.RunConfig{MaxRounds: 40})
	}
}

// benchStepSharded is benchStep on the sharded executor: same round
// semantics for any shard count, so ns/op differences are pure executor
// cost (and, with GOMAXPROCS > shards, parallel speedup).
func benchStepSharded(b *testing.B, dim, shards int) {
	g := topology.Hypercube(dim)
	n := g.N()
	protos := make([]gossip.Protocol, n)
	for i := range protos {
		protos[i] = core.NewEfficient()
	}
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i%97) + 0.5
	}
	e := sim.NewScalar(g, protos, inputs, gossip.Average, 1, sim.WithShards(shards))
	for r := 0; r < 32; r++ {
		e.Step()
		e.Errors()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.Errors()
	}
}

func BenchmarkRoundPCFHypercube1024Shards1(b *testing.B) { benchStepSharded(b, 10, 1) }
func BenchmarkRoundPCFHypercube1024Shards8(b *testing.B) { benchStepSharded(b, 10, 8) }

// The tentpole scale target: one PCF round on the n=2^17 hypercube.
func BenchmarkRoundPCFHypercube128kShards8(b *testing.B) { benchStepSharded(b, 17, 8) }

// benchStepShardedMetrics is benchStepSharded with a metrics recorder
// attached: the steady-state cost of the per-shard counter banks on the
// hot round path (the invariant probes run off-path at the sampling
// cadence and are benchmarked separately by BenchmarkObserve). Compare
// against the variants above to read the enabled-counters overhead.
func benchStepShardedMetrics(b *testing.B, dim, shards int) {
	g := topology.Hypercube(dim)
	n := g.N()
	protos := make([]gossip.Protocol, n)
	for i := range protos {
		protos[i] = core.NewEfficient()
	}
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i%97) + 0.5
	}
	e := sim.NewScalar(g, protos, inputs, gossip.Average, 1, sim.WithShards(shards))
	e.SetMetrics(metrics.New(metrics.Config{Shards: shards, Interval: 1 << 30}))
	for r := 0; r < 32; r++ {
		e.Step()
		e.Errors()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.Errors()
	}
}

func BenchmarkRoundPCFHypercube1024Shards8Metrics(b *testing.B) { benchStepShardedMetrics(b, 10, 8) }
func BenchmarkRoundPCFHypercube128kShards8Metrics(b *testing.B) { benchStepShardedMetrics(b, 17, 8) }

// BenchmarkObservePCFHypercube1024 measures one full invariant probe
// (error quantiles, mass residual, anti-symmetry scan, counter merge) —
// the price of one sample, paid every Interval rounds, never per
// message.
func BenchmarkObservePCFHypercube1024(b *testing.B) {
	g := topology.Hypercube(10)
	n := g.N()
	protos := make([]gossip.Protocol, n)
	for i := range protos {
		protos[i] = core.NewEfficient()
	}
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i%97) + 0.5
	}
	e := sim.NewScalar(g, protos, inputs, gossip.Average, 1)
	e.SetMetrics(metrics.New(metrics.Config{Interval: 1, EventCapacity: 8}))
	for r := 0; r < 32; r++ {
		e.Step()
		e.Errors()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe()
	}
}

// BenchmarkObservePCFTorus4kShards2 sets one Observe against one
// Step+Errors round on the link-failure recovery workload's engine:
// PCF on torus3d(16³), n = 4096, two cache-aware shards, a recorder
// attached. Each op is one round followed by one Observe, timed apart,
// so host drift moves both alike; observe/round is their ratio — 0.1 is
// observation cheap enough to leave on every round.
func BenchmarkObservePCFTorus4kShards2(b *testing.B) {
	g := topology.Torus3D(16, 16, 16)
	n := g.N()
	protos := make([]gossip.Protocol, n)
	for i := range protos {
		protos[i] = core.NewEfficient()
	}
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(i%97) + 0.5
	}
	e := sim.NewScalar(g, protos, inputs, gossip.Average, 1, sim.WithPartition(topology.CacheAware(g, 2)))
	defer e.Close()
	e.SetMetrics(metrics.New(metrics.Config{Shards: 2, Interval: 1 << 30, EventCapacity: 8}))
	for r := 0; r < 96; r++ {
		e.Step()
		e.Errors()
	}
	e.Observe()
	var round, observe time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		e.Step()
		e.Errors()
		t1 := time.Now()
		e.Observe()
		round += t1.Sub(t0)
		observe += time.Since(t1)
	}
	b.ReportMetric(float64(observe.Microseconds())/float64(b.N), "observe-µs")
	b.ReportMetric(float64(observe)/float64(round), "observe/round")
}

// BenchmarkShardEfficiency sets two cache-aware shards against one on
// the two perfbench graphs: each op runs a batch of Step+Errors rounds
// on a 1-shard engine, then the same batch on a 2-shard engine over the
// same inputs, so host drift moves both legs alike. eff is the 1-shard
// time over twice the 2-shard time (1 is perfect scaling); a lone
// 1-shard solve per run, as in perfbench's sim.parallel_efficiency,
// instead follows the host. Meaningful only where GOMAXPROCS ≥ 2.
func BenchmarkShardEfficiency(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *topology.Graph
	}{
		{"torus3d16", topology.Torus3D(16, 16, 16)},
		{"hypercube14", topology.Hypercube(14)},
	} {
		b.Run(c.name, func(b *testing.B) {
			const batch = 40
			n := c.g.N()
			inputs := make([]float64, n)
			for i := range inputs {
				inputs[i] = float64(i%97) + 0.5
			}
			var engines [2]*sim.Engine
			for k := range engines {
				protos := make([]gossip.Protocol, n)
				for i := range protos {
					protos[i] = core.NewEfficient()
				}
				engines[k] = sim.NewScalar(c.g, protos, inputs, gossip.Average, 1,
					sim.WithPartition(topology.CacheAware(c.g, k+1)))
				defer engines[k].Close()
				for range batch {
					engines[k].Step()
					engines[k].Errors()
				}
			}
			var took [2]time.Duration
			b.ResetTimer()
			for range b.N {
				for k, e := range engines {
					t0 := time.Now()
					for range batch {
						e.Step()
						e.Errors()
					}
					took[k] += time.Since(t0)
				}
			}
			rounds := float64(b.N * batch)
			b.ReportMetric(float64(took[0].Microseconds())/rounds, "µs/round-1shard")
			b.ReportMetric(float64(took[1].Microseconds())/rounds, "µs/round-2shards")
			b.ReportMetric(float64(took[0])/(2*float64(took[1])), "eff")
		})
	}
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkEngineHeap reports the steady-state memory of the two
// perfbench graphs, PCF on two cache-aware shards: the live heap per
// node that building the topology, partition, protocols and engine
// adds (B/node-setup, what perfbench's mem_bytes_per_node counts), and
// the same after 300 Step+Errors rounds (B/node-300rounds), which adds
// what the rounds keep: message storage, inboxes and buckets at their
// high-water marks, error scratch and the worker pool.
func BenchmarkEngineHeap(b *testing.B) {
	for _, c := range []struct {
		name  string
		graph func() *topology.Graph
	}{
		{"torus3d16", func() *topology.Graph { return topology.Torus3D(16, 16, 16) }},
		{"hypercube14", func() *topology.Graph { return topology.Hypercube(14) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var setup, steady float64
			for range b.N {
				base := liveHeap()
				g := c.graph()
				n := g.N()
				protos := make([]gossip.Protocol, n)
				inputs := make([]float64, n)
				for i := range protos {
					protos[i] = core.NewEfficient()
					inputs[i] = float64(i%97) + 0.5
				}
				e := sim.NewScalar(g, protos, inputs, gossip.Average, 1, sim.WithPartition(topology.CacheAware(g, 2)))
				setup += float64(liveHeap()-base) / float64(n)
				for range 300 {
					e.Step()
					e.Errors()
				}
				steady += float64(liveHeap()-base) / float64(n)
				e.Close()
			}
			b.ReportMetric(setup/float64(b.N), "B/node-setup")
			b.ReportMetric(steady/float64(b.N), "B/node-300rounds")
		})
	}
}
