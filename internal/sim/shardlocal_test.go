package sim

import (
	"fmt"
	"testing"
	"unsafe"

	"pcfreduce/internal/gossip"
	"pcfreduce/internal/topology"
)

// lineSpan is the inclusive range of 64-byte cache lines one
// phase-written region occupies.
type lineSpan struct {
	what   string
	lo, hi uintptr
}

func spanOf(what string, p unsafe.Pointer, size uintptr) lineSpan {
	a := uintptr(p)
	return lineSpan{what, a / cacheLine, (a + size - 1) / cacheLine}
}

// shardSpans lists what shard s's phase tasks write through memory the
// executor lays out itself: the block's fields (its pad excluded — a
// neighbour sharing only pad bytes is harmless) and the backings of the
// estimate scratch, outbox row and delivery merge cursors, each over its
// full capacity.
func shardSpans(ss *shardState, s int) []lineSpan {
	l := &ss.local[s]
	return []lineSpan{
		spanOf("block", unsafe.Pointer(l), unsafe.Sizeof(shardWrites{})),
		spanOf("est", unsafe.Pointer(unsafe.SliceData(l.est)), uintptr(cap(l.est))*unsafe.Sizeof(float64(0))),
		spanOf("bucket row", unsafe.Pointer(unsafe.SliceData(l.bucket)), uintptr(cap(l.bucket))*unsafe.Sizeof([]*gossip.Message(nil))),
		spanOf("dcur", unsafe.Pointer(unsafe.SliceData(l.dcur)), uintptr(cap(l.dcur))*unsafe.Sizeof(0)),
	}
}

func checkNoSharedLines(t *testing.T, label string, e *Engine) {
	t.Helper()
	p := len(e.shard.local)
	for s := 0; s < p; s++ {
		for u := s + 1; u < p; u++ {
			for _, a := range shardSpans(e.shard, s) {
				for _, b := range shardSpans(e.shard, u) {
					if a.lo <= b.hi && b.lo <= a.hi {
						t.Errorf("%s: shard %d's %s (lines %#x–%#x) shares a cache line with shard %d's %s (lines %#x–%#x)",
							label, s, a.what, a.lo, a.hi, u, b.what, b.lo, b.hi)
					}
				}
			}
		}
	}
}

func widthInputs(n, k int) []gossip.Value {
	init := make([]gossip.Value, n)
	for i := range init {
		v := gossip.NewValue(k)
		for c := range v.X {
			v.X[c] = float64((i*(c+3))%13) + 0.5
		}
		v.W = gossip.Average.InitialWeight(i)
		init[i] = v
	}
	return init
}

// TestShardLocalNoSharedLines pins the executor's shard-private write
// set: no two shards' phase-written headers or scratch backings share a
// 64-byte cache line, at construction and after a width-changing
// ResetWithInputs reallocates the estimate scratch. A field added to
// shardState outside the padded block, or a scratch buffer allocated
// without lineCap, brings back the false sharing this guards against.
func TestShardLocalNoSharedLines(t *testing.T) {
	g := topology.Hypercube(4)
	n := g.N()
	for _, p := range []int{2, 3, 8} {
		for _, w := range []int{1, 16} {
			e := New(g, pcfProtos(n), widthInputs(n, w), 1, WithShards(p))
			e.Step()
			e.Errors()
			checkNoSharedLines(t, fmt.Sprintf("p=%d width=%d", p, w), e)
			w2 := 17 - w
			e.ResetWithInputs(2, widthInputs(n, w2))
			e.Step()
			e.Errors()
			checkNoSharedLines(t, fmt.Sprintf("p=%d width=%d reset to width=%d", p, w, w2), e)
			e.Close()
		}
	}
}
