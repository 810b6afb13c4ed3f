// Package pushflow implements the push-flow (PF) algorithm of Gansterer,
// Niederbrucker, Straková and Schulze Grotthoff — the fault-tolerant
// gossip reduction that the paper's push-cancel-flow algorithm improves
// upon. It follows the pseudocode of the paper's Figure 1 exactly.
//
// Instead of transferring mass like push-sum, every node i keeps one flow
// variable f(i,j) per neighbor j, representing the net mass that has
// flowed from i to j. A node's current local mass is
//
//	vᵢ − Σ_j f(i,j),
//
// and a send to neighbor k first adds half the local mass to f(i,k)
// ("virtual send") and then transmits the entire flow variable; the
// receiver overwrites its mirror variable with the negation,
// f(j,i) = −f(i,j), restoring flow conservation. Because every message
// carries the full flow state of its edge rather than a delta, loss,
// duplication or corruption of messages is healed by the next successful
// exchange, and a permanently failed component is excluded by zeroing the
// corresponding flow variables (paper Sec. II-A).
//
// The paper's Section II shows the price of this design: the flow
// variables converge to arbitrary, execution-dependent values that may
// exceed the aggregate by orders of magnitude, causing (a) floating-point
// cancellation that caps achievable accuracy as n grows (Fig. 3) and
// (b) restart-like convergence fall-backs when a flow is zeroed during
// failure handling (Fig. 4).
package pushflow

import (
	"pcfreduce/internal/gossip"
)

// Node is the push-flow state machine for a single node.
//
// The flow variables and neighbor lists live in the shared edge store
// (gossip.EdgeStore) with one slot per edge, edge k's flow in slot k,
// and the input and scratch values are carved from the same float
// block: the hot local-mass computation (one pass over all flows per
// send) streams through contiguous memory, and a node's floats are one
// allocation.
type Node struct {
	id      int
	e       gossip.EdgeStore
	init    gossip.Value
	scratch gossip.Value // reused by FillMessage/EstimateInto
}

// New returns an uninitialized push-flow node; callers must Reset it.
func New() *Node { return &Node{} }

// Reset implements gossip.Protocol. A repeated Reset over the same
// neighborhood and value width zeroes the existing flow variables in
// place instead of reallocating them, so restarting a trial on a reused
// engine does not allocate.
func (n *Node) Reset(node int, neighbors []int32, init gossip.Value) {
	n.e.Reset(neighbors, init.Width(), 1, &n.init, &n.scratch)
	n.id = node
	n.init.Set(init)
}

// localInto computes the node's current mass vᵢ − Σ_j f(i,j) into dst
// without allocating (beyond growing dst once to the value width).
func (n *Node) localInto(dst *gossip.Value) {
	dst.Set(n.init)
	n.e.SubSlots(dst, 1)
}

// FillMessage implements gossip.Protocol: virtual-send half the local
// mass into f(i,k), then physically send the whole flow variable.
func (n *Node) FillMessage(target int, msg *gossip.Message) {
	k := n.e.Edge(target)
	if k < 0 {
		panic("pushflow: send to non-neighbor")
	}
	n.localInto(&n.scratch)
	n.scratch.HalfInPlace()
	n.e.AddSlot(k, n.scratch)
	msg.From, msg.To, msg.Kind = n.id, target, gossip.KindData
	msg.C, msg.R = 0, 0
	msg.Flow1.Set(n.e.Slot(k))
	msg.Flow2.X = msg.Flow2.X[:0]
	msg.Flow2.W = 0
}

// Receive implements gossip.Protocol: overwrite the mirror flow with the
// negation of the received one, f(i,j) ← −f(j,i).
func (n *Node) Receive(msg gossip.Message) {
	k := n.e.Edge(msg.From)
	if k < 0 || msg.Flow1.Width() != n.e.Width() {
		return // unknown sender or malformed message
	}
	if !msg.Flow1.Finite() {
		// Detectably corrupted payload (NaN/Inf, e.g. from an exponent
		// bit flip): discard. A discarded message is equivalent to a
		// lost one, which the flow exchange heals by design; folding a
		// non-finite value into a flow variable would instead poison
		// both endpoints irrecoverably.
		return
	}
	n.e.NegSlot(k, msg.Flow1)
}

// EstimateInto implements gossip.Protocol.
func (n *Node) EstimateInto(dst []float64) []float64 {
	n.localInto(&n.scratch)
	return n.scratch.EstimateInto(dst)
}

// OnLinkFailure implements gossip.Protocol: algorithmically exclude the
// failed link by zeroing its flow variable (paper Sec. II-A). This is
// precisely the operation whose uncontrolled impact on the local estimate
// causes PF's restart problem (Sec. II-C).
func (n *Node) OnLinkFailure(neighbor int) {
	if k := n.e.Fail(neighbor); k >= 0 {
		n.e.ZeroEdge(k)
	}
}

// OnLinkRecover implements gossip.Protocol: re-admit a neighbor
// evicted by OnLinkFailure. The flow variable restarts from zero — for
// PF the peer's mirror was (or will be, once it reintegrates us) zeroed
// too, and the first exchange overwrites both halves anyway, so the edge
// resumes plain push-flow immediately.
func (n *Node) OnLinkRecover(neighbor int) { n.e.Recover(neighbor) }

// LiveNeighbors implements gossip.Protocol.
func (n *Node) LiveNeighbors() []int32 { return n.e.Live() }

// Flow implements gossip.Flows, exposing f(i,j) for tests and the bus
// worked example (paper Fig. 2).
func (n *Node) Flow(neighbor int) gossip.Value {
	if k := n.e.Edge(neighbor); k >= 0 {
		return n.e.Slot(k).Clone()
	}
	return gossip.NewValue(n.e.Width())
}

// EdgeView implements gossip.Protocol for the metrics anti-symmetry
// probe: each edge's one slot is its flow, with no exemption.
func (n *Node) EdgeView() (*gossip.EdgeStore, int, bool) { return &n.e, 1, false }

// LocalValueInto implements gossip.Protocol.
func (n *Node) LocalValueInto(dst *gossip.Value) { n.localInto(dst) }

// OnNeighborJoin implements gossip.Protocol: admit a brand-new
// neighbor with a zero-flow edge (mass-neutral by construction). An edge
// recreated onto a neighbor we already know reduces to reintegration
// (zero-flow restart).
func (n *Node) OnNeighborJoin(neighbor int) { n.e.Join(neighbor, &n.init, &n.scratch) }

// AbsorbMass implements gossip.Protocol: fold a gracefully
// departing neighbor's surplus into this node's own contribution. Flows
// are untouched, so the local estimate rises by exactly v.
func (n *Node) AbsorbMass(v gossip.Value) {
	n.init.AddInPlace(v)
}

// SetInput implements gossip.Protocol: live-monitoring input change.
// Flows are untouched; the local estimate shifts by the input delta and
// the network re-averages it.
func (n *Node) SetInput(v gossip.Value) {
	n.init.Set(v)
}
