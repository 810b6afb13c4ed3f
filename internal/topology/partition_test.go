package topology_test

import (
	"slices"
	"testing"

	"pcfreduce/internal/topology"
)

// checkPartition verifies the structural contract shared by both
// constructors: Validate passes (exact disjoint ascending cover), shard
// count matches, sizes are balanced within ±1, and the recomputed cut
// count agrees with the reported Stats.
func checkPartition(t *testing.T, g *topology.Graph, pt *topology.Partition, p int) {
	t.Helper()
	if err := pt.Validate(g); err != nil {
		t.Fatalf("%s p=%d: %v", g.Name(), p, err)
	}
	want := p
	if want > g.N() {
		want = g.N()
	}
	if len(pt.Shards) != want {
		t.Fatalf("%s p=%d: got %d shards", g.Name(), p, len(pt.Shards))
	}
	if pt.Stats.MaxSize-pt.Stats.MinSize > 1 {
		t.Fatalf("%s p=%d: unbalanced shards: min %d max %d", g.Name(), p, pt.Stats.MinSize, pt.Stats.MaxSize)
	}
	// Shadow recount of the cut with a plain map, independent of the
	// assignment-array bookkeeping in partitionStats.
	shadow := make(map[int32]int)
	for s, list := range pt.Shards {
		for _, v := range list {
			shadow[v] = s
		}
	}
	cut := 0
	for i := 0; i < g.N(); i++ {
		for _, j := range g.Neighbors(i) {
			if int(j) > i && shadow[int32(i)] != shadow[j] {
				cut++
			}
		}
	}
	if cut != pt.Stats.CutEdges {
		t.Fatalf("%s p=%d: Stats.CutEdges=%d, shadow recount %d", g.Name(), p, pt.Stats.CutEdges, cut)
	}
	if pt.Stats.TotalEdges != g.NumEdges() {
		t.Fatalf("%s p=%d: Stats.TotalEdges=%d, graph has %d", g.Name(), p, pt.Stats.TotalEdges, g.NumEdges())
	}
}

func partitionFamilies() []*topology.Graph {
	return []*topology.Graph{
		topology.Hypercube(8),
		topology.Torus2D(16, 16),
		topology.Torus3D(6, 6, 6),
		topology.Grid2D(20, 13),
		topology.BinaryTree(255),
		topology.Ring(100),
		topology.WattsStrogatz(128, 3, 0.2, 7),
	}
}

func TestContiguousPartition(t *testing.T) {
	for _, g := range partitionFamilies() {
		for _, p := range []int{1, 2, 3, 8} {
			pt := topology.Contiguous(g, p)
			checkPartition(t, g, pt, p)
			if pt.Stats.Strategy != "contiguous" {
				t.Fatalf("%s p=%d: strategy %q", g.Name(), p, pt.Stats.Strategy)
			}
			// Contiguous shard s must be exactly the range [s·n/p, (s+1)·n/p).
			n := g.N()
			for s, list := range pt.Shards {
				lo, hi := s*n/p, (s+1)*n/p
				if len(list) != hi-lo || (len(list) > 0 && (int(list[0]) != lo || int(list[len(list)-1]) != hi-1)) {
					t.Fatalf("%s p=%d shard %d: not the contiguous range [%d,%d)", g.Name(), p, s, lo, hi)
				}
			}
		}
	}
}

// TestCacheAwareNeverWorseThanContiguous pins the fallback guarantee:
// on every family (including hypercubes, where contiguous blocks are
// subcubes and already near-optimal) the cache-aware cut count never
// exceeds the contiguous one.
func TestCacheAwareNeverWorseThanContiguous(t *testing.T) {
	for _, g := range partitionFamilies() {
		for _, p := range []int{1, 2, 3, 8} {
			pt := topology.CacheAware(g, p)
			checkPartition(t, g, pt, p)
			contig := topology.Contiguous(g, p)
			if pt.Stats.CutEdges > contig.Stats.CutEdges {
				t.Fatalf("%s p=%d: cache-aware cut %d > contiguous %d", g.Name(), p, pt.Stats.CutEdges, contig.Stats.CutEdges)
			}
		}
	}
	// Both layouts are deterministic, so on the larger families the
	// exact 8-shard cut, heaviest cross-shard traffic and chosen
	// strategy are pinned: a partitioner change that moves any of them
	// must say so here.
	for _, want := range []struct {
		g                    *topology.Graph
		contigCut, caCut     int
		contigCross, caCross int
		strategy             string
	}{
		{topology.Hypercube(10), 1536, 1536, 128, 128, "contiguous"},
		{topology.Grid2D(256, 256), 1792, 1590, 256, 186, "bfs"},
		{topology.Torus2D(128, 128), 1024, 1024, 128, 128, "contiguous"},
		{topology.BinaryTree(1<<15 - 1), 28672, 4108, 4096, 586, "bfs"},
	} {
		const p = 8
		pt := topology.CacheAware(want.g, p)
		checkPartition(t, want.g, pt, p)
		contig := topology.Contiguous(want.g, p)
		got := []int{contig.Stats.CutEdges, pt.Stats.CutEdges, contig.Stats.MaxCrossTraffic, pt.Stats.MaxCrossTraffic}
		pin := []int{want.contigCut, want.caCut, want.contigCross, want.caCross}
		if !slices.Equal(got, pin) || pt.Stats.Strategy != want.strategy {
			t.Errorf("%s p=%d: contiguous cut/cross %d/%d, cache-aware %d/%d (%s); pinned %d/%d, %d/%d (%s)",
				want.g.Name(), p, got[0], got[2], got[1], got[3], pt.Stats.Strategy,
				pin[0], pin[2], pin[1], pin[3], want.strategy)
		}
	}
}

// TestCacheAwareWinsOnTrees asserts a strict improvement where the id
// order is hostile to contiguous blocks: a heap-ordered complete binary
// tree scatters each node's children to ids ~2i, so contiguous blocks
// cut a large fraction of the tree's edges while BFS growth captures
// whole subtrees (a few cut edges per shard).
func TestCacheAwareWinsOnTrees(t *testing.T) {
	g := topology.BinaryTree(1023)
	for _, p := range []int{4, 8} {
		ca := topology.CacheAware(g, p)
		contig := topology.Contiguous(g, p)
		if ca.Stats.Strategy != "bfs" {
			t.Fatalf("p=%d: expected the BFS layout to win on a tree, got %q (cut %d vs %d)",
				p, ca.Stats.Strategy, ca.Stats.CutEdges, contig.Stats.CutEdges)
		}
		if ca.Stats.CutEdges*2 >= contig.Stats.CutEdges {
			t.Fatalf("p=%d: expected ≥2x cut reduction on a tree: cache-aware %d vs contiguous %d",
				p, ca.Stats.CutEdges, contig.Stats.CutEdges)
		}
	}
}

func TestCacheAwareDeterministic(t *testing.T) {
	g := topology.Torus3D(5, 5, 5)
	a := topology.CacheAware(g, 8)
	b := topology.CacheAware(g, 8)
	if len(a.Shards) != len(b.Shards) {
		t.Fatal("shard counts differ between identical constructions")
	}
	for s := range a.Shards {
		if len(a.Shards[s]) != len(b.Shards[s]) {
			t.Fatalf("shard %d sizes differ", s)
		}
		for k := range a.Shards[s] {
			if a.Shards[s][k] != b.Shards[s][k] {
				t.Fatalf("shard %d diverges at position %d", s, k)
			}
		}
	}
}

// TestTrafficMatrix pins the cross-bucket traffic matrix contract on
// every family and both constructors: the matrix is symmetric (the
// graphs are undirected), the diagonal plus off-diagonal halves account
// for every directed edge, the off-diagonal total is exactly 2·CutEdges,
// and Stats.MaxCrossTraffic equals the largest off-diagonal entry.
func TestTrafficMatrix(t *testing.T) {
	for _, g := range partitionFamilies() {
		for _, p := range []int{1, 2, 3, 8} {
			for _, build := range []func(*topology.Graph, int) *topology.Partition{topology.Contiguous, topology.CacheAware} {
				pt := build(g, p)
				m := pt.TrafficMatrix(g)
				if len(m) != len(pt.Shards) {
					t.Fatalf("%s p=%d: matrix has %d rows for %d shards", g.Name(), p, len(m), len(pt.Shards))
				}
				total, cross, maxCross := 0, 0, 0
				for s := range m {
					if len(m[s]) != len(pt.Shards) {
						t.Fatalf("%s p=%d: row %d has %d columns", g.Name(), p, s, len(m[s]))
					}
					for d, c := range m[s] {
						if c != m[d][s] {
							t.Fatalf("%s p=%d: asymmetric entry [%d][%d]=%d vs [%d][%d]=%d",
								g.Name(), p, s, d, c, d, s, m[d][s])
						}
						total += c
						if s != d {
							cross += c
							if c > maxCross {
								maxCross = c
							}
						}
					}
				}
				if total != 2*g.NumEdges() {
					t.Fatalf("%s p=%d: matrix total %d, want 2·edges=%d", g.Name(), p, total, 2*g.NumEdges())
				}
				if cross != 2*pt.Stats.CutEdges {
					t.Fatalf("%s p=%d: off-diagonal total %d, want 2·cut=%d", g.Name(), p, cross, 2*pt.Stats.CutEdges)
				}
				if maxCross != pt.Stats.MaxCrossTraffic {
					t.Fatalf("%s p=%d: Stats.MaxCrossTraffic=%d, matrix max %d",
						g.Name(), p, pt.Stats.MaxCrossTraffic, maxCross)
				}
			}
		}
	}
}

func TestPartitionClamp(t *testing.T) {
	g := topology.Path(3)
	for _, build := range []func(*topology.Graph, int) *topology.Partition{topology.Contiguous, topology.CacheAware} {
		pt := build(g, 8)
		if len(pt.Shards) != 3 {
			t.Fatalf("expected clamp to n=3 shards, got %d", len(pt.Shards))
		}
		checkPartition(t, g, pt, 3)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=0")
		}
	}()
	topology.Contiguous(g, 0)
}

func TestPartitionValidateRejects(t *testing.T) {
	g := topology.Ring(6)
	bad := []*topology.Partition{
		{Shards: [][]int32{{0, 1, 2}, {3, 4}}},          // missing node
		{Shards: [][]int32{{0, 1, 2}, {2, 3, 4, 5}}},    // duplicate
		{Shards: [][]int32{{0, 2, 1}, {3, 4, 5}}},       // out of order
		{Shards: [][]int32{{0, 1, 2}, {3, 4, 5, 6}}},    // out of range
		{Shards: [][]int32{{0, 1, 2, 3, 4, 5}, {}, {}}}, // empty shards are fine, but cover must be exact
	}
	for i, pt := range bad[:4] {
		if err := pt.Validate(g); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	if err := bad[4].Validate(g); err != nil {
		t.Fatalf("empty trailing shards should validate: %v", err)
	}
}

// FuzzPartition drives both constructors with fuzzed families and shard
// counts and checks the full contract against a map-based shadow model
// (mirrors the FuzzOverlay pattern).
func FuzzPartition(f *testing.F) {
	f.Add(uint8(0), 16, 2, int64(1))
	f.Add(uint8(1), 64, 8, int64(7))
	f.Add(uint8(2), 100, 3, int64(42))
	f.Add(uint8(3), 31, 5, int64(-3))
	f.Add(uint8(4), 6, 7, int64(9))
	f.Fuzz(func(t *testing.T, kind uint8, a, p int, seed int64) {
		var g *topology.Graph
		switch kind % 6 {
		case 0:
			g = topology.Hypercube(clamp(a, 0, 8))
		case 1:
			g = topology.Torus2D(clamp(a, 2, 12), clamp(a/2, 3, 12))
		case 2:
			g = topology.BinaryTree(clamp(a, 1, 500))
		case 3:
			g = topology.Ring(clamp(a, 3, 300))
		case 4:
			g = topology.Grid2D(clamp(a, 1, 20), clamp(a/3, 1, 20))
		default:
			g = topology.WattsStrogatz(2*clamp(a, 4, 64), clamp(a, 1, 3), 0.3, seed)
		}
		p = clamp(p, 1, 16)
		contig := topology.Contiguous(g, p)
		checkPartitionFuzz(t, g, contig)
		ca := topology.CacheAware(g, p)
		checkPartitionFuzz(t, g, ca)
		if ca.Stats.CutEdges > contig.Stats.CutEdges {
			t.Fatalf("%s p=%d: cache-aware cut %d > contiguous %d", g.Name(), p, ca.Stats.CutEdges, contig.Stats.CutEdges)
		}
	})
}

func checkPartitionFuzz(t *testing.T, g *topology.Graph, pt *topology.Partition) {
	t.Helper()
	if err := pt.Validate(g); err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	// Map-based shadow: every node exactly once, sizes within ±1,
	// cut edges recomputed independently.
	shadow := make(map[int32]int, g.N())
	minSize, maxSize := g.N()+1, 0
	for s, list := range pt.Shards {
		if len(list) < minSize {
			minSize = len(list)
		}
		if len(list) > maxSize {
			maxSize = len(list)
		}
		for _, v := range list {
			if _, dup := shadow[v]; dup {
				t.Fatalf("%s: node %d in two shards", g.Name(), v)
			}
			shadow[v] = s
		}
	}
	if len(shadow) != g.N() {
		t.Fatalf("%s: covered %d of %d nodes", g.Name(), len(shadow), g.N())
	}
	if maxSize-minSize > 1 {
		t.Fatalf("%s: unbalanced: min %d max %d", g.Name(), minSize, maxSize)
	}
	if minSize != pt.Stats.MinSize || maxSize != pt.Stats.MaxSize {
		t.Fatalf("%s: stats sizes (%d,%d) disagree with shadow (%d,%d)",
			g.Name(), pt.Stats.MinSize, pt.Stats.MaxSize, minSize, maxSize)
	}
	cut := 0
	for i := 0; i < g.N(); i++ {
		for _, j := range g.Neighbors(i) {
			if int(j) > i && shadow[int32(i)] != shadow[j] {
				cut++
			}
		}
	}
	if cut != pt.Stats.CutEdges {
		t.Fatalf("%s: Stats.CutEdges=%d, shadow %d", g.Name(), pt.Stats.CutEdges, cut)
	}
}
