package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pcfreduce/internal/gossip"
)

// refNode is the PCF state machine written in the gossip.Value algebra,
// one Value per flow slot: the form Node.Receive, FillMessage and
// EstimateInto had before they became one-pass kernels over the edge
// store's flat slot floats, plus the crossing rule (c's swapped and
// announced bits).
// The differential tests below drive it and a Node through the same
// exchanges and require bitwise-equal state, messages and estimates
// after every step.
type refNode struct {
	variant   Variant
	id        int
	nbr, live []int32
	init, phi gossip.Value
	f         [][2]gossip.Value
	c         []uint8
	r         []uint64
	saved     []*edgeSnapshot
}

func newRefNode(v Variant, id int, nbr []int32, init gossip.Value) *refNode {
	n := &refNode{
		variant: v, id: id,
		nbr: slices.Clone(nbr), live: slices.Clone(nbr),
		init: init.Clone(), phi: gossip.NewValue(init.Width()),
		f: make([][2]gossip.Value, len(nbr)),
		c: make([]uint8, len(nbr)),
		r: make([]uint64, len(nbr)),
	}
	for k := range nbr {
		n.restart(k)
	}
	return n
}

func (n *refNode) edge(j int) int { return slices.Index(n.nbr, int32(j)) }

func (n *refNode) restart(k int) {
	w := n.init.Width()
	n.f[k] = [2]gossip.Value{gossip.NewValue(w), gossip.NewValue(w)}
	n.c[k], n.r[k] = 0, 1
}

func (n *refNode) local() gossip.Value {
	e := n.init.Clone()
	e.SubInPlace(n.phi)
	if n.variant == VariantRobust {
		for k := range n.f {
			e.SubInPlace(n.f[k][0])
			e.SubInPlace(n.f[k][1])
		}
	}
	return e
}

func (n *refNode) EstimateInto(dst []float64) []float64 { return n.local().EstimateInto(dst) }

func (n *refNode) FillMessage(target int, msg *gossip.Message) {
	k := n.edge(target)
	half := n.local()
	half.HalfInPlace()
	n.f[k][n.c[k]&1].AddInPlace(half)
	if n.variant == VariantEfficient {
		n.phi.AddInPlace(half)
	}
	msg.From, msg.To, msg.Kind = n.id, target, gossip.KindData
	msg.Flow1.Set(n.f[k][0])
	msg.Flow2.Set(n.f[k][1])
	msg.C = n.c[k]&1 + 1
	msg.R = n.r[k]
	if n.c[k]&swapped != 0 {
		n.c[k] |= announced
	}
}

func (n *refNode) Receive(msg gossip.Message) {
	k := n.edge(msg.From)
	if k < 0 {
		return
	}
	w := n.init.Width()
	if msg.Flow1.Width() != w || msg.Flow2.Width() != w {
		return
	}
	if !msg.Flow1.Finite() || !msg.Flow2.Finite() {
		return
	}
	if msg.C != 1 && msg.C != 2 {
		return
	}
	peerC := msg.C - 1
	peerF := [2]gossip.Value{msg.Flow1, msg.Flow2}
	if a := int(n.c[k] & 1); n.c[k]&announced != 0 && uint8(a) != peerC && n.r[k] == msg.R {
		// The crossing rule: the peer's whole flow and our passive slot
		// fold into our active slot.
		q := peerF[0].Add(peerF[1])
		q.AddInPlace(n.f[k][1-a])
		n.exchange(k, a, q)
		return
	}
	n.c[k] &= 1
	if n.c[k] != peerC && n.r[k] == msg.R {
		n.c[k] = peerC
	}
	if n.c[k] != peerC || msg.R > n.r[k]+1 {
		if msg.R > n.r[k] {
			n.c[k] = peerC
			n.r[k] = msg.R
			for s := 0; s < 2; s++ {
				n.exchange(k, s, peerF[s])
			}
		}
		return
	}
	a := int(n.c[k])
	p := 1 - a
	n.exchange(k, a, peerF[a])
	switch {
	case peerF[p].Equal(n.f[k][p].Neg()) && n.r[k] == msg.R:
		n.cancel(k, p)
		n.r[k]++
	case peerF[p].IsZero() && n.r[k]+1 == msg.R:
		n.c[k] = uint8(p) | swapped
		n.cancel(k, p)
		n.r[k]++
	default:
		if n.r[k] == msg.R {
			n.exchange(k, p, peerF[p])
		}
	}
}

// exchange is the push-flow step on slot s: ϕ ← ϕ − f − peer (efficient
// variant), then f ← −peer.
func (n *refNode) exchange(k, s int, peer gossip.Value) {
	if n.variant == VariantEfficient {
		n.phi.SubInPlace(n.f[k][s])
		n.phi.SubInPlace(peer)
	}
	n.f[k][s] = peer.Neg()
}

func (n *refNode) cancel(k, s int) {
	if n.variant == VariantRobust {
		n.phi.AddInPlace(n.f[k][s])
	}
	n.f[k][s].Zero()
}

func (n *refNode) OnLinkFailure(neighbor int) {
	if i := slices.Index(n.live, int32(neighbor)); i >= 0 {
		n.live = slices.Delete(n.live, i, i+1)
	}
	k := n.edge(neighbor)
	if k < 0 {
		return
	}
	if n.saved == nil {
		n.saved = make([]*edgeSnapshot, len(n.nbr))
	}
	n.saved[k] = &edgeSnapshot{f: [2]gossip.Value{n.f[k][0].Clone(), n.f[k][1].Clone()}, c: n.c[k], r: n.r[k]}
	if n.variant == VariantRobust {
		n.phi.AddInPlace(n.f[k][0])
		n.phi.AddInPlace(n.f[k][1])
	}
	n.restart(k)
}

func (n *refNode) OnLinkRecover(neighbor int) {
	k := n.edge(neighbor)
	if k < 0 || slices.Contains(n.live, int32(neighbor)) {
		return
	}
	n.live = append(n.live, int32(neighbor))
	var s *edgeSnapshot
	if n.saved != nil {
		s = n.saved[k]
	}
	if s == nil {
		n.restart(k)
		return
	}
	if n.variant == VariantRobust {
		n.phi.SubInPlace(s.f[0])
		n.phi.SubInPlace(s.f[1])
	}
	n.f[k] = [2]gossip.Value{s.f[0].Clone(), s.f[1].Clone()}
	n.c[k], n.r[k] = s.c, s.r
	n.saved[k] = nil
}

// kernelDriver runs a Node (the kernel) and a refNode (the reference)
// per id of a triangle through one byte-driven sequence of sends,
// deliveries (reordered, duplicated or corrupted), forged handshake
// messages and link failures and recoveries, comparing them after every
// step.
type kernelDriver struct {
	t      testing.TB
	ops    []byte
	step   int
	width  int
	kern   []*Node
	ref    []*refNode
	flight []gossip.Message
	buf    [2][]float64
}

// driverNodes is the driver's triangle; 7 is a sender no node knows.
const driverNodes, stranger = 3, 7

func runKernelDriver(t testing.TB, v Variant, width int, ops []byte) {
	d := &kernelDriver{t: t, ops: ops, width: width}
	for i := 0; i < driverNodes; i++ {
		var nbr []int32
		for j := 0; j < driverNodes; j++ {
			if j != i {
				nbr = append(nbr, int32(j))
			}
		}
		init := gossip.NewValue(width)
		for c := range init.X {
			init.X[c] = float64((i+1)*(c+3)) * 0.7
		}
		init.W = 1
		k := New(v)
		k.Reset(i, nbr, init)
		d.kern = append(d.kern, k)
		d.ref = append(d.ref, newRefNode(v, i, nbr, init))
	}
	d.check(nil, nil)
	for len(d.ops) > 0 {
		d.step++
		d.apply()
	}
}

func (d *kernelDriver) next() int {
	if len(d.ops) == 0 {
		return 0
	}
	b := d.ops[0]
	d.ops = d.ops[1:]
	return int(b)
}

// pair draws a node and one of its neighbors.
func (d *kernelDriver) pair() (i, j int) {
	i = d.next() % driverNodes
	return i, (i + 1 + d.next()%(driverNodes-1)) % driverNodes
}

// small draws a float with a fractional part, so sums round.
func (d *kernelDriver) small() float64 { return float64(int8(d.next())) * 0.3 }

func (d *kernelDriver) apply() {
	switch d.next() % 8 {
	case 0, 1: // send into flight
		d.flight = append(d.flight, d.fill())
		if len(d.flight) > 8 {
			d.flight = d.flight[1:]
		}
	case 2, 3: // deliver an in-flight message: any order, maybe kept (duplicated), maybe corrupted
		if len(d.flight) == 0 {
			return
		}
		idx := d.next() % len(d.flight)
		m := d.flight[idx].Clone()
		if d.next()%2 == 0 {
			d.flight = slices.Delete(d.flight, idx, idx+1)
		}
		d.corrupt(&m)
		d.deliver(m)
	case 4: // forge a handshake message against the receiver's passive slot, maybe corrupted
		m := d.forge()
		d.corrupt(&m)
		d.deliver(m)
	case 5:
		i, j := d.pair()
		d.kern[i].OnLinkFailure(j)
		d.ref[i].OnLinkFailure(j)
		d.check(nil, nil)
	case 6:
		i, j := d.pair()
		d.kern[i].OnLinkRecover(j)
		d.ref[i].OnLinkRecover(j)
		d.check(nil, nil)
	case 7: // a clean exchange
		d.deliver(d.fill())
	}
}

func (d *kernelDriver) fill() gossip.Message {
	i, j := d.pair()
	var mk, mr gossip.Message
	d.kern[i].FillMessage(j, &mk)
	d.ref[i].FillMessage(j, &mr)
	d.check(&mk, &mr)
	return mk
}

func (d *kernelDriver) corrupt(m *gossip.Message) {
	flow := [2]*gossip.Value{&m.Flow1, &m.Flow2}[d.next()%2]
	at := func(x float64) {
		if c := d.next() % (d.width + 1); c < d.width {
			flow.X[c] = x
		} else {
			flow.W = x
		}
	}
	switch d.next() % 12 {
	case 1:
		at(math.NaN())
	case 2:
		at(math.Inf(1 - 2*(d.next()%2)))
	case 3:
		if d.next()%2 == 0 {
			flow.X = flow.X[:d.width-1]
		} else {
			flow.X = append(flow.X, 0)
		}
	case 4:
		m.C = uint8([]int{0, 3, 255}[d.next()%3])
	case 5:
		m.R += 2
	case 6:
		m.R -= 2
	case 7:
		m.From = stranger
	case 8:
		m.R++
	case 9:
		m.C = 3 - m.C
	case 10:
		at(0)
	case 11:
		at(d.small())
	}
}

// forge builds a message from a neighbor that matches the receiver's
// handshake state: either the passive slot mirrors the receiver's at
// equal r (case (i)), or it is zero with r one ahead (case (ii)), with
// an arbitrary active flow.
func (d *kernelDriver) forge() gossip.Message {
	i, j := d.pair()
	n := d.kern[i]
	k := n.e.Edge(j)
	c, r := n.c[k]&1, n.r[k]
	m := gossip.Message{From: j, To: i, C: c + 1, R: r}
	f := [2]*gossip.Value{&m.Flow1, &m.Flow2}
	*f[c] = gossip.NewValue(d.width)
	for x := range f[c].X {
		f[c].X[x] = d.small()
	}
	f[c].W = d.small()
	if d.next()%2 == 0 {
		*f[1-c] = n.e.Slot(2*k + 1 - int(c)).Neg()
	} else {
		*f[1-c] = gossip.NewValue(d.width)
		m.R++
	}
	return m
}

func (d *kernelDriver) deliver(m gossip.Message) {
	to := m.To
	d.kern[to].Receive(m.Clone())
	d.ref[to].Receive(m.Clone())
	d.check(nil, nil)
}

func (d *kernelDriver) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("step %d: %s", d.step, fmt.Sprintf(format, args...))
}

// check compares every node's state, and the messages when given.
func (d *kernelDriver) check(mk, mr *gossip.Message) {
	d.t.Helper()
	if mk != nil {
		if mk.From != mr.From || mk.To != mr.To || mk.Kind != mr.Kind || mk.C != mr.C || mk.R != mr.R ||
			!sameBits(mk.Flow1, mr.Flow1) || !sameBits(mk.Flow2, mr.Flow2) {
			d.fail("message %v, reference %v", *mk, *mr)
		}
	}
	for i, k := range d.kern {
		r := d.ref[i]
		if !sameBits(k.phi, r.phi) || !sameBits(k.init, r.init) {
			d.fail("node %d: ϕ %v init %v, reference %v %v", i, k.phi, k.init, r.phi, r.init)
		}
		if !slices.Equal(k.c, r.c) || !slices.Equal(k.r, r.r) || !slices.Equal(k.e.Live(), r.live) {
			d.fail("node %d: c %v r %v live %v, reference %v %v %v", i, k.c, k.r, k.e.Live(), r.c, r.r, r.live)
		}
		for e := range r.f {
			for s := 0; s < 2; s++ {
				if !sameBits(k.e.Slot(2*e+s), r.f[e][s]) {
					d.fail("node %d edge %d slot %d: %v, reference %v", i, e, s, k.e.Slot(2*e+s), r.f[e][s])
				}
			}
			ks, rs := k.savedEdge(e), (*edgeSnapshot)(nil)
			if r.saved != nil {
				rs = r.saved[e]
			}
			if (ks == nil) != (rs == nil) || ks != nil &&
				(ks.c != rs.c || ks.r != rs.r || !sameBits(ks.f[0], rs.f[0]) || !sameBits(ks.f[1], rs.f[1])) {
				d.fail("node %d edge %d: saved %v, reference %v", i, e, ks, rs)
			}
		}
		d.buf[0] = k.EstimateInto(d.buf[0])
		d.buf[1] = r.EstimateInto(d.buf[1])
		if !sameFloats(d.buf[0], d.buf[1]) {
			d.fail("node %d: estimate %v, reference %v", i, d.buf[0], d.buf[1])
		}
		if lv := localOf(k); !sameBits(lv, r.local()) {
			d.fail("node %d: local value %v, reference %v", i, lv, r.local())
		}
	}
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

var kernelWidths = []int{1, 3, 16}

// TestPCFKernelMatchesReference drives random exchange sequences, with
// every corruption the driver knows, through the kernel and the Value
// reference for both variants and widths 1, 3 and 16.
func TestPCFKernelMatchesReference(t *testing.T) {
	for _, v := range []Variant{VariantEfficient, VariantRobust} {
		for _, w := range kernelWidths {
			t.Run(fmt.Sprintf("%v/w%d", v, w), func(t *testing.T) {
				for seed := int64(0); seed < 40; seed++ {
					ops := make([]byte, 3000)
					rand.New(rand.NewSource(seed)).Read(ops)
					runKernelDriver(t, v, w, ops)
				}
			})
		}
	}
}

// FuzzPCFKernel runs the differential driver on fuzzed op streams; cfg
// picks the variant (bit 0) and the width (1, 3 or 16).
func FuzzPCFKernel(f *testing.F) {
	for cfg := byte(0); cfg < 6; cfg++ {
		f.Add(cfg, []byte{7, 0, 1, 7, 1, 0, 7, 0, 1, 7, 1, 0, 7, 2, 0, 7, 0, 2})
		f.Add(cfg, []byte{0, 0, 1, 0, 1, 0, 2, 0, 1, 0, 2, 1, 0, 5, 3, 1, 4, 0, 1, 6, 0, 1, 4, 1, 0, 9})
	}
	f.Add(byte(1), []byte{5, 0, 0, 7, 1, 0, 6, 0, 0, 7, 0, 1, 4, 1, 0, 0, 2, 0, 0, 0, 6})
	f.Fuzz(func(t *testing.T, cfg byte, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		runKernelDriver(t, Variant(cfg&1), kernelWidths[int(cfg>>1)%len(kernelWidths)], ops)
	})
}

// TestPCFKernelAllocFree: a warmed-up exchange round trip plus an
// estimate allocates nothing, for both variants at widths 1 and 16.
func TestPCFKernelAllocFree(t *testing.T) {
	for _, v := range []Variant{VariantEfficient, VariantRobust} {
		for _, w := range []int{1, 16} {
			a, b := New(v), New(v)
			a.Reset(0, []int32{1}, gossip.Vector(make([]float64, w), 1))
			init := gossip.NewValue(w)
			for j := range init.X {
				init.X[j] = 3
			}
			init.W = 1
			b.Reset(1, []int32{0}, init)
			var msg gossip.Message
			est := make([]float64, w)
			if allocs := testing.AllocsPerRun(100, func() {
				a.FillMessage(1, &msg)
				b.Receive(msg)
				b.FillMessage(0, &msg)
				a.Receive(msg)
				est = a.EstimateInto(est)
			}); allocs != 0 {
				t.Errorf("%v width %d: %v allocs per exchange", v, w, allocs)
			}
		}
	}
}
