package topology_test

import (
	"testing"

	"pcfreduce/internal/topology"
)

// The CSR memory-footprint benchmarks: build one topology family at
// n ≈ 2^20 and report the adjacency cost per node. One op is one full graph
// construction, so ns/op doubles as the million-node build time.
func benchFootprint(b *testing.B, build func() *topology.Graph) {
	g := build()
	b.ReportMetric(float64(g.FootprintBytes())/float64(g.N()), "bytes/node")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = build()
	}
	_ = g
}

func BenchmarkFootprintHypercube1M(b *testing.B) {
	benchFootprint(b, func() *topology.Graph { return topology.Hypercube(20) })
}

func BenchmarkFootprintTorus3D1M(b *testing.B) {
	benchFootprint(b, func() *topology.Graph { return topology.Torus3D(128, 128, 64) })
}

func BenchmarkFootprintGrid2D1M(b *testing.B) {
	benchFootprint(b, func() *topology.Graph { return topology.Grid2D(1024, 1024) })
}

func BenchmarkFootprintRing1M(b *testing.B) {
	benchFootprint(b, func() *topology.Graph { return topology.Ring(1 << 20) })
}

func BenchmarkFootprintPath1M(b *testing.B) {
	benchFootprint(b, func() *topology.Graph { return topology.Path(1 << 20) })
}
