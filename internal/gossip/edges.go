package gossip

import "slices"

// EdgeStore is the per-edge state the flow protocols share: the
// neighbor ids, the live list, and a fixed number of width-float flow
// slots per edge (push-sum 0, push-flow 1, push-cancel-flow 2 — the
// two flow slots — and Flow Updating 2 — flow and last estimate).
// Protocols embed it by value and keep any other per-edge state (PCF's
// handshake counters, FU's known flags) in their own arrays indexed by
// the same edge index.
//
// All of a node's floats live in one allocation, laid out as
//
//	vec₀ | vec₁ | … | x | w
//
// The vecs are the node's own width-float vectors (input, ϕ, …),
// whose Value headers stay in the protocol; x holds the slot payloads,
// width floats each, edge-major, so edge k's slots are k·slots …
// (k+1)·slots−1 and are contiguous; w holds the slot weights in the same
// order. Slots have no Value headers of their own: reads build a view
// on the fly (Slot) and writes go through AddSlot/SetSlot/NegSlot/
// ZeroEdge, which keep Value's per-component arithmetic, so every result
// is bitwise what the Value algebra computes. A protocol kernel may
// instead write through the payload view Slot returns and the flat
// Weights itself (PCF's does). A joining neighbor gets the next edge
// index, so no existing edge ever changes index.
//
// Neighbor ids and the live list share one []int32, the live list
// capped at the degree so that a reintegration appends in place. The
// id → edge map exists only above denseScanMax neighbors.
//
// The fields every message reads come first and the rest last, so a
// protocol that embeds the store after its own per-message fields keeps
// them in as few cache lines as it can.
type EdgeStore struct {
	width int           // floats per slot payload
	nbr   []int32       // edge k's neighbor id
	live  []int32       // live neighbors, in reintegration order; capacity deg
	x     []float64     // slot payloads: deg·slots·width floats
	w     []float64     // slot weights: deg·slots floats
	slots int           // slots per edge
	idx   map[int32]int // neighbor id → edge; nil up to denseScanMax neighbors
}

// denseScanMax bounds the neighborhood size up to which Edge uses a
// linear scan of the neighbor list instead of the id map. For typical
// gossip degrees (ring, torus, hypercube) the scan is faster than
// hashing; complete-like graphs fall back to the map.
const denseScanMax = 32

// Reset points the store at a new neighborhood with slots zeroed slots
// of the given width per edge, all live, and carves vecs from the
// node's float block, zeroed. A repeated Reset over the same
// neighborhood, width and slot count zeroes the existing block in place
// instead of reallocating it, so restarting a trial on a reused engine
// does not allocate. The caller passes the same vecs, in the same
// order, to every Reset and Join.
func (s *EdgeStore) Reset(neighbors []int32, width, slots int, vecs ...*Value) {
	if s.x != nil && s.width == width && s.slots == slots && slices.Equal(s.nbr, neighbors) {
		clear(s.x)
		clear(s.w)
		for _, v := range vecs {
			clear(v.X)
			v.W = 0
		}
	} else {
		s.width, s.slots = width, slots
		s.carve(len(neighbors), false, vecs)
		copy(s.nbr, neighbors)
		s.index()
	}
	s.live = append(s.live[:0], s.nbr...)
}

// carve allocates a zeroed float block and id list sized for deg edges
// and points vecs and every view into them, copying each vec's old
// contents when keep is set. Each view is capped at its own extent, so
// no view can grow into its neighbor.
func (s *EdgeStore) carve(deg int, keep bool, vecs []*Value) {
	w, nx := s.width, deg*s.slots*s.width
	h := len(vecs) * w
	f := make([]float64, h+nx+deg*s.slots)
	for i, v := range vecs {
		x := f[i*w : (i+1)*w : (i+1)*w]
		if keep {
			copy(x, v.X)
		} else {
			v.W = 0
		}
		v.X = x
	}
	s.x = f[h : h+nx : h+nx]
	s.w = f[h+nx:]
	ids := make([]int32, 2*deg)
	s.nbr = ids[:deg:deg]
	s.live = ids[deg:deg]
}

// index builds the id → edge map once the node has more than
// denseScanMax neighbors; below that Edge scans and the map stays nil.
func (s *EdgeStore) index() {
	s.idx = nil
	if len(s.nbr) > denseScanMax {
		s.idx = make(map[int32]int, len(s.nbr))
		for k, j := range s.nbr {
			s.idx[j] = k
		}
	}
}

// Edge returns the edge index of the given neighbor id, or -1 when the
// id is not a neighbor.
func (s *EdgeStore) Edge(neighbor int) int {
	t := int32(neighbor)
	if len(s.nbr) <= denseScanMax {
		for k, j := range s.nbr {
			if j == t {
				return k
			}
		}
		return -1
	}
	if k, ok := s.idx[t]; ok {
		return k
	}
	return -1
}

// NextEdge returns the edge index of the given neighbor id, or -1 when
// it is not a neighbor, trying prev+1 first. A walk over the live list
// that passes each result on as prev resolves every entry that follows
// its predecessor in the neighbor list without a lookup: all of them
// until the first failure, and after it all but one per gap and per
// reintegrated neighbor.
func (s *EdgeStore) NextEdge(prev int, neighbor int32) int {
	if q := prev + 1; q < len(s.nbr) && s.nbr[q] == neighbor {
		return q
	}
	return s.Edge(int(neighbor))
}

// Neighbor returns edge k's neighbor id.
func (s *EdgeStore) Neighbor(k int) int { return int(s.nbr[k]) }

// AntiSymViolations counts the first flows slots of edge k that are not
// the bitwise negation (up to the sign of zero) of the same slots of
// edge kt in t, the neighbor's store, which must have the same width. With
// zeroExempt a slot that is zero (Value.IsZero) on either side never
// counts. Whether a slot mirrors its peer follows the protocol's
// exchanges, not a pattern a branch predictor can learn, so the tests
// are combined arithmetically instead of branched on.
func (s *EdgeStore) AntiSymViolations(k int, t *EdgeStore, kt, flows int, zeroExempt bool) int {
	w := s.width
	if t.width != w {
		panic("gossip: anti-symmetry check across stores of different widths")
	}
	count, exempt := 0, b2i(zeroExempt)
	for f := 0; f < flows; f++ {
		a, b := k*s.slots+f, kt*t.slots+f
		xa, xb := s.x[a*w:(a+1)*w], t.x[b*w:(b+1)*w]
		wa, wb := s.w[a], t.w[b]
		mirror, za, zb := b2i(wa == -wb), b2i(wa == 0), b2i(wb == 0)
		for c, x := range xa {
			y := xb[c]
			mirror &= b2i(x == -y)
			za &= b2i(x == 0)
			zb &= b2i(y == 0)
		}
		count += (1 - mirror) & (1 - (za|zb)&exempt)
	}
	return count
}

// b2i is 1 for true and 0 for false, compiled without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Width returns the slot payload width.
func (s *EdgeStore) Width() int { return s.width }

// Degree returns the number of edges, live or not.
func (s *EdgeStore) Degree() int { return len(s.nbr) }

// Live returns the live neighbors in reintegration order. The caller
// must not modify the slice.
func (s *EdgeStore) Live() []int32 { return s.live }

// IsLive reports whether edge k's neighbor is on the live list.
func (s *EdgeStore) IsLive(k int) bool { return slices.Contains(s.live, s.nbr[k]) }

// Fail takes the neighbor off the live list and returns its edge index,
// or -1 when it is not a neighbor.
func (s *EdgeStore) Fail(neighbor int) int {
	if i := slices.Index(s.live, int32(neighbor)); i >= 0 {
		s.live = slices.Delete(s.live, i, i+1)
	}
	return s.Edge(neighbor)
}

// Recover puts an evicted neighbor back at the end of the live list
// with its edge's slots zeroed and returns the edge index, or -1 when
// the id is not a neighbor or is already live.
func (s *EdgeStore) Recover(neighbor int) int {
	k := s.Edge(neighbor)
	if k < 0 || slices.Contains(s.live, int32(neighbor)) {
		return -1
	}
	s.ZeroEdge(k)
	s.live = append(s.live, int32(neighbor))
	return k
}

// Join admits a neighbor to the live list with zeroed slots and returns
// its edge index, or -1 when it is already live. A known neighbor is
// recovered; a brand-new one gets the next edge index, the block and id
// list growing by one edge and vecs keeping their contents.
func (s *EdgeStore) Join(neighbor int, vecs ...*Value) int {
	if s.Edge(neighbor) >= 0 {
		return s.Recover(neighbor)
	}
	old := *s
	deg := len(old.nbr)
	s.carve(deg+1, true, vecs)
	copy(s.x, old.x)
	copy(s.w, old.w)
	copy(s.nbr, old.nbr)
	s.nbr[deg] = int32(neighbor)
	s.live = append(append(s.live, old.live...), int32(neighbor))
	if s.idx != nil {
		s.idx[int32(neighbor)] = deg
	} else {
		s.index()
	}
	return deg
}

// Slot returns a view of slot i: X aliases the payload, W is a copy of
// the weight.
func (s *EdgeStore) Slot(i int) Value {
	w := s.width
	return Value{X: s.x[i*w : (i+1)*w : (i+1)*w], W: s.w[i]}
}

// AddSlot sets slot i ← slot i + v (Value.AddInPlace).
func (s *EdgeStore) AddSlot(i int, v Value) {
	x := s.x[i*s.width : (i+1)*s.width]
	x = x[:len(v.X)]
	for j, y := range v.X {
		x[j] += y
	}
	s.w[i] += v.W
}

// SetSlot sets slot i ← v (Value.Set).
func (s *EdgeStore) SetSlot(i int, v Value) {
	copy(s.x[i*s.width:(i+1)*s.width], v.X)
	s.w[i] = v.W
}

// NegSlot sets slot i ← −v, component by component.
func (s *EdgeStore) NegSlot(i int, v Value) {
	x := s.x[i*s.width : (i+1)*s.width]
	x = x[:len(v.X)]
	for j, y := range v.X {
		x[j] = -y
	}
	s.w[i] = -v.W
}

// ZeroEdge sets every slot of edge k to zero.
func (s *EdgeStore) ZeroEdge(k int) {
	n := s.slots
	clear(s.x[k*n*s.width : (k+1)*n*s.width])
	clear(s.w[k*n : (k+1)*n])
}

// SubSlots sets dst ← dst − Σ slot i over i = 0, step, 2·step, …: every
// slot for step 1, the first slot of every edge for step = slots per
// edge. Each component subtracts the slots in ascending slot order, the
// order of one SubInPlace per slot.
func (s *EdgeStore) SubSlots(dst *Value, step int) {
	x, xs, ws, w := dst.X, s.x, s.w, s.width
	dw := dst.W
	for i := 0; i < len(ws); i += step {
		for j, y := range xs[i*w : (i+1)*w] {
			x[j] -= y
		}
		dw -= ws[i]
	}
	dst.W = dw
}

// Payloads returns the slot payloads, edge-major; the view aliases the
// store.
func (s *EdgeStore) Payloads() []float64 { return s.x }

// Weights returns the slot weights, edge-major; the view aliases the
// store.
func (s *EdgeStore) Weights() []float64 { return s.w }

// SaveSlots appends the slot payloads and then the slot weights, each
// as one bulk copy with no length prefix.
func (s *EdgeStore) SaveSlots(w *StateWriter) {
	w.PutF64s(s.x)
	w.PutF64s(s.w)
}

// LoadSlots reads the slots written by SaveSlots.
func (s *EdgeStore) LoadSlots(r *StateReader) {
	r.ReadF64s(s.x)
	r.ReadF64s(s.w)
}

// SaveLive appends the live list verbatim: its order encodes the
// reintegration history, which the engines' target draw and FU's
// averaging order depend on.
func (s *EdgeStore) SaveLive(w *StateWriter) { w.PutI32s(s.live) }

// LoadLive reads a live list written by SaveLive. A list longer than
// the degree, or holding an id that is not a neighbor or appears twice,
// cannot have been written by this neighborhood and latches
// ErrStateInvalid.
func (s *EdgeStore) LoadLive(r *StateReader) {
	ids := r.I32s()
	s.live = s.live[:0]
	if len(ids) > len(s.nbr) {
		r.Invalid()
		return
	}
	for _, id := range ids {
		if s.Edge(int(id)) < 0 || slices.Contains(s.live, id) {
			r.Invalid()
			return
		}
		s.live = append(s.live, id)
	}
}
