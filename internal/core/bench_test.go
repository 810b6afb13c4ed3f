package core_test

import (
	"runtime"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/flowupdate"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/pushflow"
)

// benchPair ping-pongs one message buffer between two connected nodes
// over the allocation-free FillMessage/Receive path — the inner loop of
// every engine's hot path, isolated from engine bookkeeping.
func benchPair(b *testing.B, mk func() *core.Node) {
	a, c := mk(), mk()
	a.Reset(0, []int32{1}, gossip.Scalar(1, 1))
	c.Reset(1, []int32{0}, gossip.Scalar(5, 1))
	var msg gossip.Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.FillMessage(1, &msg)
		c.Receive(msg)
		c.FillMessage(0, &msg)
		a.Receive(msg)
	}
}

func BenchmarkPairEfficient(b *testing.B) { benchPair(b, core.NewEfficient) }
func BenchmarkPairRobust(b *testing.B)    { benchPair(b, core.NewRobust) }

// benchFan measures FillMessage across a neighborhood of the given
// degree: ≤ 32 exercises the linear-scan edge lookup, larger degrees the
// map fallback.
func benchFan(b *testing.B, degree int) {
	n := core.NewEfficient()
	nbrs := make([]int32, degree)
	for k := range nbrs {
		nbrs[k] = int32(k + 1)
	}
	n.Reset(0, nbrs, gossip.Scalar(2, 1))
	var msg gossip.Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.FillMessage(int(nbrs[i%degree]), &msg)
	}
}

func BenchmarkFanDegree8(b *testing.B)  { benchFan(b, 8) }
func BenchmarkFanDegree64(b *testing.B) { benchFan(b, 64) }

// roundNode is what BenchmarkNodeRound drives: the per-message protocol
// surface every flow protocol implements.
type roundNode interface {
	Reset(node int, neighbors []int32, init gossip.Value)
	FillMessage(target int, msg *gossip.Message)
	Receive(msg gossip.Message)
}

// BenchmarkNodeRound runs one gossip round over 2^14 degree-14 nodes
// (hypercube(14) neighbourhoods) for each flow protocol: every node, in
// ascending id, fills a message toward one neighbour and that neighbour
// receives it. The ~16k nodes' state far exceeds the L1/L2 caches, so
// unlike the two-node BenchmarkPair* this measures the cost of reaching
// per-node state in memory, which is what the node layout decides. It
// also reports the heap the nodes hold after a first round (heapB/node)
// and the objects it is made of (objs/node).
func BenchmarkNodeRound(b *testing.B) {
	for _, v := range []struct {
		name string
		mk   func() roundNode
	}{
		{"pf", func() roundNode { return pushflow.New() }},
		{"fu", func() roundNode { return flowupdate.New() }},
		{"efficient", func() roundNode { return core.NewEfficient() }},
		{"robust", func() roundNode { return core.NewRobust() }},
	} {
		b.Run(v.name, func(b *testing.B) { benchNodeRound(b, v.mk) })
	}
}

func benchNodeRound(b *testing.B, mk func() roundNode) {
	const dim = 14
	nodes := make([]roundNode, 1<<dim)
	nbrs := make([]int32, dim<<dim)
	for i := range nodes {
		for k := 0; k < dim; k++ {
			nbrs[i*dim+k] = int32(i ^ 1<<k)
		}
	}
	var msg gossip.Message
	round := func(op int) {
		for i, nd := range nodes {
			t := i ^ 1<<((i*5+op)%dim) // edge varies by node and round
			nd.FillMessage(t, &msg)
			nodes[t].Receive(msg)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range nodes {
		nodes[i] = mk()
		nodes[i].Reset(i, nbrs[i*dim:(i+1)*dim], gossip.Scalar(float64(i%11), 1))
	}
	round(0) // first-use scratch growth is set-up, not per-round cost
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportAllocs()
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		round(op)
	}
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(len(nodes)), "heapB/node")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(len(nodes)), "objs/node")
}
