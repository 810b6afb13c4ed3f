package sim

// BenchmarkPhase2Delivery isolates phase-2 delivery: each iteration
// runs phase 1 (activation + routing into the per-(source → destination)
// buckets) and the barrier bookkeeping with the timer stopped, so the
// timed region is exactly deliverRound — the parallel per-destination
// bucket walks, loss draws, inbox appends and free-list recycling.
//
// This file lives in package sim (the other benchmarks are sim_test)
// because isolating one phase requires calling the unexported phase
// hooks between timer toggles.

import (
	"fmt"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/topology"
)

func benchPhase2Graph(n int) *topology.Graph {
	switch n {
	case 1 << 15:
		return topology.Hypercube(15)
	case 1 << 20:
		return topology.Torus2D(1024, 1024)
	default:
		panic(fmt.Sprintf("no phase-2 bench topology for n=%d", n))
	}
}

func BenchmarkPhase2Delivery(b *testing.B) {
	for _, n := range []int{1 << 15, 1 << 20} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			g := benchPhase2Graph(n)
			protos := make([]gossip.Protocol, n)
			inputs := make([]float64, n)
			for i := 0; i < n; i++ {
				protos[i] = core.NewEfficient()
				inputs[i] = float64(i % 1024)
			}
			e := NewScalar(g, protos, inputs, gossip.Average, 1, WithShards(8))
			defer e.Close()
			for r := 0; r < 8; r++ {
				e.Step() // settle inbox and free-list high-water marks
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e.inPhase1 = true
				e.runShards("activate", metrics.PhaseActivate, e.shard.phase1Task)
				e.inPhase1 = false
				e.foldKeepalives()
				b.StartTimer()
				e.deliverRound()
				b.StopTimer()
				e.flushShardEvents()
				e.rebalancePools()
				e.round++
				b.StartTimer()
			}
		})
	}
}
