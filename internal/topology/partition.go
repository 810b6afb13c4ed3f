package topology

// Shard partitioning for the phase-split simulator executor.
//
// A Partition splits the node set into p disjoint shards, each held as
// an ascending id list. The sharded engine executes phase 1 with one
// worker per shard and delivers each destination shard's traffic in
// ascending source id order, so the *content* of the shards is
// purely a performance knob: any partition of the same graph produces
// byte-identical results (see internal/sim/shard.go and DESIGN.md).
// What the content does change is memory locality: a worker walking its
// shard touches the CSR rows and protocol state of its own nodes plus
// the message pools of its neighbors' shards, so fewer cross-shard
// edges means fewer cold cache lines and less cross-core write traffic
// at merge time.
//
// Two strategies are provided. Contiguous is the PR 3 layout (shard s
// owns ids [s·n/p, (s+1)·n/p)) — already strong for families whose id
// order is geometric, e.g. hypercubes (a contiguous block is a subcube)
// and row-major tori (a block is a slab). CacheAware runs a
// deterministic greedy BFS graph-growing pass and keeps whichever of
// the two layouts cuts fewer edges, so its cut count never exceeds the
// contiguous baseline — the invariant the partition tests pin down.

import (
	"fmt"
	"sort"
)

// Partition is a disjoint cover of a graph's nodes by p shards. Shards
// holds ascending node-id lists; Stats describes the layout quality.
type Partition struct {
	Shards [][]int32
	Stats  PartitionStats
}

// PartitionStats summarizes a partition's balance and edge locality.
type PartitionStats struct {
	// Shards is the shard count.
	Shards int `json:"shards"`
	// CutEdges counts undirected edges whose endpoints land in
	// different shards — the cross-shard traffic at merge time.
	CutEdges int `json:"cut_edges"`
	// TotalEdges is the graph's undirected edge count.
	TotalEdges int `json:"total_edges"`
	// MinSize and MaxSize are the smallest and largest shard sizes;
	// both constructors guarantee MaxSize−MinSize ≤ 1.
	MinSize int `json:"min_size"`
	MaxSize int `json:"max_size"`
	// MaxCrossTraffic is the largest off-diagonal entry of the
	// cross-bucket traffic matrix (see TrafficMatrix): the directed edge
	// count of the heaviest single (source shard → destination shard)
	// outbox bucket, i.e. the worst per-bucket load any one phase-2
	// delivery task inherits from any one source shard.
	MaxCrossTraffic int `json:"max_cross_traffic"`
	// Strategy names the layout that won: "contiguous" or "bfs".
	Strategy string `json:"strategy"`
}

// Contiguous builds the PR 3 layout: shard s owns the id range
// [s·n/p, (s+1)·n/p). Sizes differ by at most one.
func Contiguous(g *Graph, p int) *Partition {
	p = clampShards(g.N(), p)
	n := g.N()
	backing := make([]int32, n)
	for i := range backing {
		backing[i] = int32(i)
	}
	shards := make([][]int32, p)
	for s := 0; s < p; s++ {
		lo, hi := s*n/p, (s+1)*n/p
		shards[s] = backing[lo:hi:hi]
	}
	pt := &Partition{Shards: shards}
	pt.Stats = partitionStats(g, shards, "contiguous")
	return pt
}

// CacheAware builds a partition that minimizes cross-shard edges with a
// deterministic greedy BFS graph-growing pass: each shard grows from
// the lowest-id unassigned node, absorbing the breadth-first frontier
// until it reaches its target size, which keeps each shard a compact
// connected region (subtrees on trees, balls on lattices). The result
// is compared against the Contiguous layout and the one with fewer cut
// edges wins, so CacheAware(g,p).Stats.CutEdges ≤ the contiguous cut
// count for every graph. The construction uses no randomness — the same
// (graph, p) always yields the same partition.
func CacheAware(g *Graph, p int) *Partition {
	p = clampShards(g.N(), p)
	contig := Contiguous(g, p)
	if p == 1 {
		return contig
	}
	n := g.N()
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	// mark[i] == s+1 when i is already queued for shard s, preventing
	// duplicate enqueues without clearing a visited set per shard.
	mark := make([]int32, n)
	queue := make([]int32, 0, n)
	shards := make([][]int32, p)
	next := 0 // monotonic cursor; always ≤ the lowest unassigned id
	for s := 0; s < p; s++ {
		size := (s+1)*n/p - s*n/p // same ±1 size split as Contiguous
		shard := make([]int32, 0, size)
		queue = queue[:0]
		qi := 0
		for len(shard) < size {
			if qi == len(queue) {
				// Frontier exhausted (fresh shard or disconnected
				// remainder): seed a new BFS at the lowest unassigned id.
				for assign[next] >= 0 {
					next++
				}
				mark[next] = int32(s + 1)
				queue = append(queue, int32(next))
			}
			v := queue[qi]
			qi++
			if assign[v] >= 0 {
				continue // absorbed by this shard via a shorter path
			}
			assign[v] = int32(s)
			shard = append(shard, v)
			for _, u := range g.Neighbors(int(v)) {
				if assign[u] < 0 && mark[u] != int32(s+1) {
					mark[u] = int32(s + 1)
					queue = append(queue, u)
				}
			}
		}
		// The merge contract requires ascending ids within a shard.
		sort.Slice(shard, func(a, b int) bool { return shard[a] < shard[b] })
		shards[s] = shard
	}
	pt := &Partition{Shards: shards}
	pt.Stats = partitionStats(g, shards, "bfs")
	if contig.Stats.CutEdges <= pt.Stats.CutEdges {
		return contig
	}
	return pt
}

// clampShards validates and clamps the shard count: p must be ≥ 1 and
// is capped at the node count (more shards than nodes is pure overhead,
// the same clamp the sharded engine applies).
func clampShards(n, p int) int {
	if p < 1 {
		panic(fmt.Sprintf("topology: partition requires p >= 1, got %d", p))
	}
	if p > n && n > 0 {
		return n
	}
	return p
}

// partitionStats computes the balance and cut statistics of shards.
func partitionStats(g *Graph, shards [][]int32, strategy string) PartitionStats {
	n := g.N()
	assign := make([]int32, n)
	for s, list := range shards {
		for _, v := range list {
			assign[v] = int32(s)
		}
	}
	st := PartitionStats{Shards: len(shards), TotalEdges: g.NumEdges(), Strategy: strategy}
	st.MinSize = n + 1
	for _, list := range shards {
		if len(list) < st.MinSize {
			st.MinSize = len(list)
		}
		if len(list) > st.MaxSize {
			st.MaxSize = len(list)
		}
	}
	if len(shards) == 0 {
		st.MinSize = 0
	}
	for i := 0; i < n; i++ {
		for _, j := range g.Neighbors(i) {
			if int(j) > i && assign[i] != assign[j] {
				st.CutEdges++
			}
		}
	}
	for s, row := range trafficMatrix(g, shards, assign) {
		for d, c := range row {
			if s != d && c > st.MaxCrossTraffic {
				st.MaxCrossTraffic = c
			}
		}
	}
	return st
}

// TrafficMatrix returns the P×P directed cross-bucket traffic matrix of
// the partition on g: entry [s][d] counts the directed edges (i → j)
// with i in shard s and j in shard d — exactly the number of slots the
// (s → d) outbox bucket of the sharded engine's parallel delivery phase
// would carry if every node messaged every neighbor. The diagonal holds
// intra-shard traffic; for an undirected graph the matrix is symmetric
// and its off-diagonal total is 2·CutEdges.
func (pt *Partition) TrafficMatrix(g *Graph) [][]int {
	n := g.N()
	assign := make([]int32, n)
	for s, list := range pt.Shards {
		for _, v := range list {
			assign[v] = int32(s)
		}
	}
	return trafficMatrix(g, pt.Shards, assign)
}

func trafficMatrix(g *Graph, shards [][]int32, assign []int32) [][]int {
	p := len(shards)
	m := make([][]int, p)
	for s := range m {
		m[s] = make([]int, p)
	}
	for i := 0; i < g.N(); i++ {
		si := assign[i]
		for _, j := range g.Neighbors(i) {
			m[si][assign[j]]++
		}
	}
	return m
}

// Validate checks that the partition is a disjoint exact cover of g's
// nodes with every shard list in strictly ascending order — the
// contract the sharded engine's cursor merge depends on.
func (pt *Partition) Validate(g *Graph) error {
	n := g.N()
	seen := make([]bool, n)
	total := 0
	for s, list := range pt.Shards {
		for k, v := range list {
			if int(v) < 0 || int(v) >= n {
				return fmt.Errorf("topology: partition shard %d holds out-of-range node %d", s, v)
			}
			if seen[v] {
				return fmt.Errorf("topology: node %d assigned to more than one shard", v)
			}
			seen[v] = true
			if k > 0 && list[k-1] >= v {
				return fmt.Errorf("topology: partition shard %d not in ascending id order at position %d", s, k)
			}
			total++
		}
	}
	if total != n {
		return fmt.Errorf("topology: partition covers %d of %d nodes", total, n)
	}
	return nil
}
