// Package core implements the push-cancel-flow (PCF) algorithm, the
// primary contribution of Niederbrucker, Straková and Gansterer,
// "Improving Fault Tolerance and Accuracy of a Distributed Reduction
// Algorithm" (SC 2012).
//
// # Background
//
// The push-flow (PF) algorithm achieves fault tolerance by exchanging
// graph-theoretical flows instead of mass: per-edge flow variables are
// idempotently overwritten on every exchange (f(j,i) ← −f(i,j)), so
// message loss, duplication and corruption heal at the next successful
// exchange, and failed components are excluded by zeroing their flows.
// Its weakness (paper Sec. II) is that the flow variables converge to
// arbitrary, execution-dependent values that can exceed the target
// aggregate by orders of magnitude. Consequences: floating-point
// cancellation limits achievable accuracy as the system grows (Fig. 3),
// and zeroing a large flow during failure handling throws the local
// estimates back to the beginning of the computation (Fig. 4).
//
// # The push-cancel-flow idea
//
// PCF makes the flow variables themselves converge to (small multiples
// of) the target aggregate, while exchanging *only* flows, which
// preserves PF's entire fault-tolerance machinery. Each edge carries two
// flow slots. At any time one slot is "active" — it runs plain push-flow
// — and the other is "passive". Once the passive slot's pair reaches
// flow conservation (f(i,j) = −f(j,i)), both endpoints fold their half
// into a node-local accumulated flow ϕ and reset the slot to zero
// ("cancellation"); then the slots swap roles via a two-phase handshake
// tracked by the (c, r) control variables carried on every message.
// Since every slot is periodically drained into ϕ, flow variables stay
// on the order of the recent estimate updates, and zeroing them on a
// permanent failure perturbs the estimate only marginally.
//
// # Variants
//
// The paper describes two realizations (Sec. III-A):
//
//   - VariantEfficient — Figure 5 verbatim. ϕ is updated incrementally
//     alongside every flow update, and the local estimate is v − ϕ.
//     Cheapest, but a corrupted flow value folded into ϕ is permanent,
//     so bit flips are (strictly speaking) not tolerated.
//
//   - VariantRobust — ϕ is updated only when a flow pair whose
//     conservation has been verified is cancelled; the estimate is
//     v − ϕ − Σ f. Because live flows self-heal by re-exchange before
//     they are folded into ϕ, in-flight bit flips are tolerated like in
//     PF.
//
// Both variants are estimate-equivalent to PF in exact arithmetic for
// identical communication schedules (paper Sec. III-B), a property the
// test suite checks bit-for-bit on dyadic inputs.
package core

import (
	"slices"

	"pcfreduce/internal/gossip"
)

// Variant selects between the two PCF realizations described in the
// paper's Section III-A.
type Variant int

const (
	// VariantEfficient is the computationally cheapest variant
	// (paper Fig. 5): ϕ tracks all flow updates incrementally and the
	// estimate is v − ϕ.
	VariantEfficient Variant = iota
	// VariantRobust preserves the full fault-tolerance range of PF
	// (including bit flips): ϕ absorbs only verified-conserved flows at
	// cancellation time and the estimate is v − ϕ − Σ f.
	VariantRobust
)

// String returns the variant's name.
func (v Variant) String() string {
	switch v {
	case VariantEfficient:
		return "PCF-efficient"
	case VariantRobust:
		return "PCF-robust"
	default:
		return "PCF-unknown"
	}
}

// edgeSnapshot is the pre-eviction state of an edge, frozen by
// OnLinkFailure so that OnLinkRecover can reinstate it (see there for
// why restoring beats restarting clean).
type edgeSnapshot struct {
	f [2]gossip.Value
	c uint8
	r uint64
}

// Node is the push-cancel-flow state machine for a single node.
//
// The flow slots and neighbor lists live in the shared edge store
// (gossip.EdgeStore) with two slots per edge — edge k's slots are 2k and
// 2k+1 — and init and ϕ are carved from the same float block, so every
// float is one dependent load away from the Node and the robust
// variant's local-mass pass (one sweep over all slots per send) streams
// through contiguous memory. The handshake state (c, r) sits in
// parallel per-edge arrays, and the per-edge eviction snapshots exist
// only once a link has failed. Field order matters: everything
// FillMessage, Receive and the engine's target draw read sits in the
// first four 64-byte lines of the node, the edge store's per-message
// fields last among them.
type Node struct {
	variant Variant
	id      int
	init    gossip.Value
	phi     gossip.Value // ϕ: accumulated flow mass
	c       []uint8      // per edge: active slot in bit 0 (wire: 1 or 2), swapped, announced
	r       []uint64     // role-change counter per edge
	e       gossip.EdgeStore

	saved []*edgeSnapshot // per edge; nil until the first OnLinkFailure
}

// Bits 1 and 2 of an edge's c byte record a role swap the peer may not
// have seen yet. Case (ii), which swaps the roles and increments r, sets
// swapped; the next FillMessage toward that neighbor, which pushes into
// the new active slot and tells the peer the new roles, adds announced.
// Every other write of c clears both. While announced is set, a message
// that carries the other active slot at equal r was composed before the
// peer saw the swap (see Receive's crossing rule).
const (
	swapped   uint8 = 2
	announced uint8 = 4
)

// validControl reports whether c is a control byte some run can reach:
// an active slot of 0 or 1, and announced only after swapped.
func validControl(c uint8) bool {
	return c <= 1|swapped|announced && (c&announced == 0 || c&swapped != 0)
}

// New returns an uninitialized PCF node with the given variant; callers
// must Reset it (engines do this automatically).
func New(v Variant) *Node { return &Node{variant: v} }

// NewEfficient returns a PCF node in the paper's Figure 5 form.
func NewEfficient() *Node { return New(VariantEfficient) }

// NewRobust returns a PCF node in the bit-flip-tolerant form.
func NewRobust() *Node { return New(VariantRobust) }

// Variant returns the node's configured variant.
func (n *Node) Variant() Variant { return n.variant }

// Reset implements gossip.Protocol. A repeated Reset over the same
// neighborhood and value width zeroes the existing state in place
// instead of reallocating it, so restarting a trial on a reused engine
// does not allocate.
func (n *Node) Reset(node int, neighbors []int32, init gossip.Value) {
	n.e.Reset(neighbors, init.Width(), 2, &n.init, &n.phi)
	deg := len(neighbors)
	n.c = slices.Grow(n.c[:0], deg)[:deg]
	n.r = slices.Grow(n.r[:0], deg)[:deg]
	clear(n.c)
	for k := range n.r {
		n.r[k] = 1
	}
	n.id = node
	n.init.Set(init)
	n.saved = nil
}

// weight returns the weight of the node's current mass: v − ϕ for the
// efficient variant, v − ϕ − Σ f for the robust variant (paper
// Sec. III-A), which subtracts the slots in ascending slot order.
func (n *Node) weight() float64 {
	m := n.init.W - n.phi.W
	if n.variant == VariantRobust {
		for _, y := range n.e.Weights() {
			m -= y
		}
	}
	return m
}

// component returns component j of the node's current mass, computed
// like weight.
func (n *Node) component(j int) float64 {
	m := n.init.X[j] - n.phi.X[j]
	if n.variant == VariantRobust {
		xs, w := n.e.Payloads(), n.e.Width()
		for i := j; i < len(xs); i += w {
			m -= xs[i]
		}
	}
	return m
}

// localInto writes the node's current mass into x (width floats) in one
// pass and returns its weight. With est set, each component is divided
// by the weight as it is written, giving the estimate x/W instead.
func (n *Node) localInto(x []float64, est bool) float64 {
	m := n.weight()
	for j := range x[:n.e.Width()] {
		l := n.component(j)
		if est {
			l /= m
		}
		x[j] = l
	}
	return m
}

// sized returns v's payload with length w, reallocated only when its
// length differs (Value.Set's rule).
func sized(v *gossip.Value, w int) []float64 {
	if len(v.X) != w {
		v.X = make([]float64, w)
	}
	return v.X
}

// FillMessage implements gossip.Protocol (paper Fig. 5 lines 30–33):
// virtual-send half the local mass into the edge's active slot, then
// transmit both slots plus the (c, r) control pair. One pass over the
// components implements lines 30–32: the half-mass e/2 (line 30, e the
// local mass of localInto) is added to the active slot (line 31) and,
// for the efficient variant, to ϕ (line 32); both slots are then copied
// into the message's flows (line 33, the transmission) in the same pass.
func (n *Node) FillMessage(target int, msg *gossip.Message) {
	k := n.e.Edge(target)
	if k < 0 {
		panic("core: send to non-neighbor")
	}
	w, ws := n.e.Width(), n.e.Weights()
	phi := n.phi.X[:w]
	efficient := n.variant == VariantEfficient
	a := 2*k + int(n.c[k]&1)
	s0, s1, sa := n.e.Slot(2*k).X, n.e.Slot(2*k+1).X, n.e.Slot(a).X
	f1, f2 := sized(&msg.Flow1, w), sized(&msg.Flow2, w)

	h := n.weight() / 2
	ws[a] += h
	if efficient {
		n.phi.W += h
	}
	for j := range sa {
		h := n.component(j) / 2 // read before sa[j] changes
		sa[j] += h
		if efficient {
			phi[j] += h
		}
		f1[j], f2[j] = s0[j], s1[j]
	}
	msg.Flow1.W, msg.Flow2.W = ws[2*k], ws[2*k+1]
	msg.From, msg.To, msg.Kind = n.id, target, gossip.KindData
	msg.C = n.c[k]&1 + 1 // wire format counts slots from 1, as the paper does
	msg.R = n.r[k]
	if n.c[k]&swapped != 0 {
		n.c[k] |= announced
	}
}

// Receive implements gossip.Protocol (paper Fig. 5 lines 6–29) with one
// edge lookup, one validation pass and one pass per slot it touches:
//
//   - validation rejects an unknown sender, a wrong width, a non-finite
//     component (one sum of x − x over both flows, which is 0 exactly
//     when every component is finite) and a control byte outside {1, 2},
//     in that order;
//   - lines 7–9, the role-change adoption, run on local copies of c and
//     r, beside the crossing rule and the hard resync for handshake
//     states the paper's cases never produce;
//   - lines 10–12: one pass exchanges the active slot;
//   - one pass tests the passive slot for mirror and zero together and
//     picks cancellation (lines 13–16), cancellation with role swap
//     (lines 17–21) or a passive exchange (lines 22–25), one more pass.
func (n *Node) Receive(msg gossip.Message) {
	k := n.e.Edge(msg.From)
	if k < 0 {
		return // unknown sender
	}
	w := n.e.Width()
	p1, p2 := msg.Flow1.X, msg.Flow2.X
	if len(p1) != w || len(p2) != w {
		return // malformed (possibly corrupted) message
	}
	fin := (msg.Flow1.W - msg.Flow1.W) + (msg.Flow2.W - msg.Flow2.W)
	p2 = p2[:len(p1)]
	for j, x := range p1 {
		fin += (x - x) + (p2[j] - p2[j])
	}
	if fin != 0 {
		// Detectably corrupted payload (NaN/Inf): discard, as in PF.
		// This matters most for the efficient variant, where a received
		// flow is folded into ϕ immediately and a non-finite value
		// would destroy ϕ permanently.
		return
	}
	if msg.C != 1 && msg.C != 2 {
		return // corrupted control byte: ignore; flows re-sync next round
	}
	peerC := msg.C - 1
	c, r := n.c[k]&1, n.r[k]

	// Lines 7–9: the peer completed a role change at equal r — adopt it.
	if c != peerC && r == msg.R {
		if n.c[k]&announced != 0 {
			// Crossing: we swapped at this r (case (ii)) and pushed the
			// new roles to the peer, which composed this message before
			// it saw them. Adopting its role would undo our swap after
			// the peer adopted it, and the peer would then cancel, as
			// passive, a slot we later resync against: mass lost for
			// good. Such crossings happen every round on the
			// phase-split engine, where a node's receive and send share
			// one activation, and on any asynchronous transport. Keep
			// our roles and fold the peer's whole flow into our active
			// slot: the sum of our slots mirrors the peer's, as a plain
			// PF exchange would leave it, while the passive slot keeps
			// the value the peer will mirror and cancel once it adopts.
			n.foldCrossing(k, c, p1, p2, msg.Flow1.W, msg.Flow2.W)
			return
		}
		c = peerC
	}
	if c != peerC || msg.R > r+1 {
		n.c[k] = c // keeps an adoption at r = 2⁶⁴−1, where r+1 wraps
		if msg.R > r {
			// Hard resync: the peer's handshake state is ahead of ours
			// in a way the paper's cases never produce on FIFO links
			// (there, r differences beyond ±1 and role mismatches at
			// unequal r cannot occur). On a transport that reorders
			// messages the (c, r) gate would otherwise wedge this edge
			// permanently — every message ignored while our sends keep
			// pouring mass into a slot nobody ever credits, draining
			// the node's local mass to zero. Recover by adopting the
			// peer's view and running a plain PF exchange on both
			// slots; cancellation resumes on the next regular message.
			n.c[k], n.r[k] = peerC, msg.R
			n.exchange(2*k, p1, msg.Flow1.W)
			n.exchange(2*k+1, p2, msg.Flow2.W)
		}
		return // otherwise stale: wait for a current message
	}

	ia, ip := 2*k+int(c), 2*k+1-int(c) // active and passive slot
	pa, pp, wa, wp := p1, p2, msg.Flow1.W, msg.Flow2.W
	if c == 1 {
		pa, pp, wa, wp = p2, p1, msg.Flow2.W, msg.Flow1.W
	}

	// Lines 10–12: the active slot runs plain push-flow.
	n.exchange(ia, pa, wa)

	// The passive slot mirrors the peer's (bitwise up to the sign of
	// zero), or the peer's is zero: both tests in one pass.
	ws := n.e.Weights()
	sp := n.e.Slot(ip).X
	pp = pp[:len(sp)]
	mirror, zero := ws[ip] == -wp, wp == 0
	for j := range sp {
		mirror = mirror && sp[j] == -pp[j]
		zero = zero && pp[j] == 0
	}
	switch {
	case mirror && r == msg.R:
		// Lines 13–16, case (i): flow conservation achieved on the
		// passive slot — cancel our half.
		n.cancel(ip)
		r++
	case zero && r+1 == msg.R:
		// Lines 17–21, case (ii): the peer already cancelled its half —
		// cancel ours and swap the roles.
		c = uint8(ip-2*k) | swapped
		n.cancel(ip)
		r++
	case r == msg.R:
		// Lines 22–25, case (iii): conservation does not (yet) hold on
		// the passive slot; treat it like an active flow so it keeps
		// converging. The paper's guard is r(i,j) ≤ r(j,i); we require
		// equality, which is the only way this case is reached in
		// failure-free operation (a peer that is one step ahead has, by
		// construction, a zero passive flow and is caught by case (ii)
		// above). The distinction matters under payload corruption: a
		// corrupted nonzero passive arriving with r one ahead would
		// otherwise overwrite our half of a pair whose negation the
		// peer has already folded into its ϕ, permanently violating
		// mass conservation. With the equality guard the corrupted
		// message is simply ignored and the peer's retransmission
		// completes the cancellation against our unmodified half.
		n.exchange(ip, pp, wp)
	}
	n.c[k], n.r[k] = c, r
}

// exchange runs push-flow on slot i against the peer's flow (peer, pw)
// in one pass: for the efficient variant ϕ ← ϕ − (f + peer), subtracted
// one term at a time, keeping ϕ equal to the node's net outflow; then
// f ← −peer.
func (n *Node) exchange(i int, peer []float64, pw float64) {
	w := n.e.Width()
	x, ws, phi := n.e.Slot(i).X, n.e.Weights(), n.phi.X[:w]
	peer = peer[:len(x)]
	efficient := n.variant == VariantEfficient
	if efficient {
		n.phi.W = n.phi.W - ws[i] - pw
	}
	ws[i] = -pw
	for j, y := range peer {
		if efficient {
			phi[j] = phi[j] - x[j] - y
		}
		x[j] = -y
	}
}

// foldCrossing runs the PF exchange of a crossing message on edge k's
// active slot c alone: active ← −((p1 + p2) + passive), per component,
// with ϕ ← (ϕ − active) − ((p1 + p2) + passive) for the efficient
// variant, so the passive slot is untouched.
func (n *Node) foldCrossing(k int, c uint8, p1, p2 []float64, w1, w2 float64) {
	w := n.e.Width()
	ia, ip := 2*k+int(c), 2*k+1-int(c)
	x, xp, ws, phi := n.e.Slot(ia).X, n.e.Slot(ip).X, n.e.Weights(), n.phi.X[:w]
	p1, p2 = p1[:len(x)], p2[:len(x)]
	efficient := n.variant == VariantEfficient
	q := w1 + w2 + ws[ip]
	if efficient {
		n.phi.W = n.phi.W - ws[ia] - q
	}
	ws[ia] = -q
	for j := range x {
		q := p1[j] + p2[j] + xp[j]
		if efficient {
			phi[j] = phi[j] - x[j] - q
		}
		x[j] = -q
	}
}

// cancel folds slot i into ϕ (robust variant) or into the implicit
// cancelled mass (efficient variant, where ϕ already accounts for it)
// and zeroes the slot.
func (n *Node) cancel(i int) {
	w := n.e.Width()
	x, ws := n.e.Slot(i).X, n.e.Weights()
	if n.variant == VariantRobust {
		phi := n.phi.X[:w]
		for j, y := range x {
			phi[j] += y
		}
		n.phi.W += ws[i]
	}
	clear(x)
	ws[i] = 0
}

// EstimateInto implements gossip.Protocol: the local mass's x/W,
// reusing dst when its capacity suffices.
func (n *Node) EstimateInto(dst []float64) []float64 {
	w := n.e.Width()
	if cap(dst) >= w {
		dst = dst[:w]
	} else {
		dst = make([]float64, w)
	}
	n.localInto(dst, true)
	return dst
}

// OnLinkFailure implements gossip.Protocol: exclude the failed link by
// zeroing both flow slots (paper Sec. II-A applied to PCF).
//
// The slots are zeroed with *absorb* semantics: their mass remains
// folded into the accumulated flow ϕ (for the efficient variant ϕ
// already accounts for it; the robust variant folds explicitly here).
// The node's estimate therefore does not move at all, and because the
// cancellation handshake maintains cancelled+slots antisymmetry across
// the edge, global mass conservation is exact no matter where in the
// handshake the failure strikes — PCF handles a permanent link failure
// with literally zero convergence fall-back (paper Fig. 7).
//
// The alternative *reclaim* semantics (subtract the slots from ϕ, i.e.
// take the un-cancelled mass back, as PF does with its whole flow)
// perturbs the estimate by the slot mass — small, since slots are
// periodically cancelled — but permanently loses the half of a pair
// whose cancellation was in progress, leaving an ε(t_fail)-scale bias
// floor in a sizable fraction of runs (measured by EXP-H during
// development). Absorb is strictly better for link failures between
// live endpoints; the trade-off is that after a *node* crash the
// survivors keep counting the mass they had already transferred to the
// dead node, converging to the surviving-mass aggregate rather than the
// survivors' initial-data aggregate — the two differ by O(ε(t_crash)/n).
func (n *Node) OnLinkFailure(neighbor int) {
	if k := n.e.Fail(neighbor); k >= 0 {
		f0, f1 := n.e.Slot(2*k), n.e.Slot(2*k+1)
		// Freeze the edge state first: if the "failure" turns out to be a
		// false suspicion or a transient outage, OnLinkRecover reinstates
		// it and the eviction becomes a no-op in retrospect.
		if n.saved == nil {
			n.saved = make([]*edgeSnapshot, n.e.Degree())
		}
		n.saved[k] = &edgeSnapshot{
			f: [2]gossip.Value{f0.Clone(), f1.Clone()},
			c: n.c[k],
			r: n.r[k],
		}
		if n.variant == VariantRobust {
			// Fold the slots into ϕ so the estimate v − ϕ − Σf is
			// unchanged by the zeroing below.
			n.phi.AddInPlace(f0)
			n.phi.AddInPlace(f1)
		}
		n.restart(k)
	}
}

// OnLinkRecover implements gossip.Protocol: re-admit a neighbor
// evicted by OnLinkFailure by reinstating the edge exactly as it was at
// eviction time (slots, active slot, role counter). Restoring — rather
// than restarting from a clean edge — matters for conservation: the
// absorb semantics of OnLinkFailure left the slot mass accounted in ϕ,
// so a clean restart followed by adopting the peer's flows would strand
// that mass in ϕ forever, a permanent slot-scale bias. With the state
// reinstated, a false suspicion is a no-op in retrospect: the peer's
// role counter cannot have advanced without our messages, so the next
// exchange proceeds through the ordinary paths (or the hard-resync path
// when the peer reset its own edge meanwhile) and flow antisymmetry —
// hence exact global conservation — is restored by the first delivered
// message. The estimate does not move at reintegration time in either
// variant, mirroring the zero-cost eviction.
func (n *Node) OnLinkRecover(neighbor int) {
	k := n.e.Recover(neighbor)
	if k < 0 {
		return
	}
	if s := n.savedEdge(k); s != nil {
		if n.variant == VariantRobust {
			// Take the slots back out of ϕ; with the slots reinstated
			// below, v − ϕ − Σf is unchanged.
			n.phi.SubInPlace(s.f[0])
			n.phi.SubInPlace(s.f[1])
		}
		n.e.SetSlot(2*k, s.f[0])
		n.e.SetSlot(2*k+1, s.f[1])
		n.c[k] = s.c
		n.r[k] = s.r
		n.saved[k] = nil
	} else {
		n.restart(k)
	}
}

// restart gives edge k a clean start: zero slots, active slot 0, role
// counter 1.
func (n *Node) restart(k int) {
	n.e.ZeroEdge(k)
	n.c[k] = 0
	n.r[k] = 1
}

// LiveNeighbors implements gossip.Protocol.
func (n *Node) LiveNeighbors() []int32 { return n.e.Live() }

// Flow implements gossip.Flows: the net live flow toward the neighbor
// (sum of both slots). After cancellation cycles this converges toward
// values on the order of the aggregate, the central claim of the paper.
func (n *Node) Flow(neighbor int) gossip.Value {
	k := n.e.Edge(neighbor)
	if k < 0 {
		return gossip.NewValue(n.e.Width())
	}
	return n.e.Slot(2 * k).Add(n.e.Slot(2*k + 1))
}

// RoleState returns the (active slot, role counter) control state for the
// given neighbor, exposed for tests of the cancellation handshake. The
// active slot is reported in wire format (1 or 2).
func (n *Node) RoleState(neighbor int) (c uint8, r uint64) {
	k := n.e.Edge(neighbor)
	if k < 0 {
		return 0, 0
	}
	return n.c[k]&1 + 1, n.r[k]
}

// Phi returns a copy of the node's accumulated flow mass ϕ, exposed for
// tests.
func (n *Node) Phi() gossip.Value { return n.phi.Clone() }

// Slots returns copies of the two flow slots for the given neighbor,
// exposed for tests of the per-slot flow antisymmetry invariant (after
// a drain, each slot either mirrors the peer's bitwise or has been
// cancelled to zero on at least one side).
func (n *Node) Slots(neighbor int) (f [2]gossip.Value, ok bool) {
	k := n.e.Edge(neighbor)
	if k < 0 {
		return f, false
	}
	return [2]gossip.Value{n.e.Slot(2 * k).Clone(), n.e.Slot(2*k + 1).Clone()}, true
}

// EdgeView implements gossip.Protocol for the metrics anti-symmetry
// probe: both slots of every edge are flows, and a slot that is zero on
// either side (cancelled, or not yet staged) is exempt.
func (n *Node) EdgeView() (*gossip.EdgeStore, int, bool) { return &n.e, 2, true }

// LocalValueInto implements gossip.Protocol.
func (n *Node) LocalValueInto(dst *gossip.Value) {
	dst.W = n.localInto(sized(dst, n.e.Width()), false)
}

// OnNeighborJoin implements gossip.Protocol: admit a brand-new
// neighbor with a clean edge — zero slots, active slot 0, role counter
// 1. A zero slot pair carries no mass, so edge admission is
// mass-neutral. When a rewire recreates an edge onto a neighbor we
// already know (both endpoints were evicted together when the edge was
// removed, so both receive this call), the edge restarts clean on both
// sides instead of reinstating the frozen pre-eviction snapshot: the
// slot mass stays absorbed in ϕ on each side, which is exactly where
// OnLinkFailure left it, and the fresh zero pair is trivially
// antisymmetric.
func (n *Node) OnNeighborJoin(neighbor int) {
	switch k := n.e.Join(neighbor, &n.init, &n.phi); {
	case k < 0: // already live
	case k == len(n.c): // brand-new edge: the store appended zero slots
		n.c = append(n.c, 0)
		n.r = append(n.r, 1)
		if n.saved != nil {
			n.saved = append(n.saved, nil)
		}
	default: // recreated edge
		n.restart(k)
		if n.saved != nil {
			n.saved[k] = nil
		}
	}
}

// AbsorbMass implements gossip.Protocol: fold a gracefully
// departing neighbor's surplus into this node's own contribution. ϕ and
// the slots are untouched, so the local estimate rises by exactly v.
func (n *Node) AbsorbMass(v gossip.Value) {
	n.init.AddInPlace(v)
}

// savedEdge returns edge k's frozen pre-eviction state, or nil.
func (n *Node) savedEdge(k int) *edgeSnapshot {
	if n.saved == nil {
		return nil
	}
	return n.saved[k]
}

// SetInput implements gossip.Protocol: live-monitoring input change
// (the paper's reference [8] use case). Flow slots and ϕ are untouched;
// the local estimate shifts by the input delta and the network
// re-averages it, with all of PCF's fault tolerance intact.
func (n *Node) SetInput(v gossip.Value) {
	n.init.Set(v)
}
