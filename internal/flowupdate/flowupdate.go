// Package flowupdate implements the Flow Updating (FU) aggregation
// algorithm of Jesus, Baquero and Almeida (DAIS 2009), referenced by the
// paper as another fault-tolerant distributed reduction method ([7]) and
// compared against PF/PCF in the authors' companion ALENEX study ([23]).
//
// Like push-flow, FU exchanges idempotent per-edge flows so that message
// loss does not destroy mass. Unlike push-flow, a node does not push half
// of its mass; instead it averages its own estimate with the last
// estimates reported by its neighbors and adjusts the flow on each edge
// so that the neighbor's estimate would move to that average:
//
//	eᵢ   = vᵢ − Σ_j f(i,j)
//	A    = mean(eᵢ, ẽ_j for known neighbors j)
//	f(i,j) ← f(i,j) + (A − ẽ_j)
//
// and the message to j carries (f(i,j), A). This implementation is the
// asynchronous gossip form: each activation updates and ships the flow
// toward a single random neighbor, fitting the same engine and schedule
// model as the other protocols in this repository.
//
// FU natively computes averages; the (value, weight) encoding used
// throughout this repository extends it to arbitrary Σx/Σw aggregates:
// FU averages the x and w components independently and the estimate is
// the component ratio, since (Σx/n)/(Σw/n) = Σx/Σw.
package flowupdate

import (
	"slices"

	"pcfreduce/internal/gossip"
)

// Node is the Flow-Updating state machine for a single node.
//
// The per-edge flows and last-reported estimates live in the shared
// edge store (gossip.EdgeStore) with two slots per edge — edge k's flow
// in slot 2k, the estimate in 2k+1 — and the input and scratch values
// are carved from the same float block, so the averaging pass (over all
// flows and known neighbor estimates per send) streams through
// contiguous memory. Whether a neighbor has been heard from sits in the
// parallel known array.
type Node struct {
	id      int
	e       gossip.EdgeStore
	init    gossip.Value
	scratch gossip.Value // reused by FillMessage (averaging target) and EstimateInto
	delta   gossip.Value // reused by FillMessage (flow adjustment)
	known   []bool       // whether we have heard from edge k's neighbor yet
}

// New returns an uninitialized Flow-Updating node; callers must Reset it.
func New() *Node { return &Node{} }

// Reset implements gossip.Protocol. A repeated Reset over the same
// neighborhood and value width zeroes the existing per-edge state in
// place instead of reallocating it, so restarting a trial on a reused
// engine does not allocate.
func (n *Node) Reset(node int, neighbors []int32, init gossip.Value) {
	n.e.Reset(neighbors, init.Width(), 2, &n.init, &n.scratch, &n.delta)
	n.known = slices.Grow(n.known[:0], len(neighbors))[:len(neighbors)]
	clear(n.known)
	n.id = node
	n.init.Set(init)
}

// localInto computes eᵢ = vᵢ − Σ_j f(i,j) into dst without allocating
// (beyond growing dst once to the value width).
func (n *Node) localInto(dst *gossip.Value) {
	dst.Set(n.init)
	n.e.SubSlots(dst, 2)
}

// averagedInto computes the FU averaging target A into dst: the mean of
// the local estimate and the last known estimates of live neighbors we
// have heard from. The sum runs in live-list order (not neighbor-index
// order): the two diverge once a reintegrated neighbor has been
// re-appended, and the floating-point result must not depend on the
// internal storage layout.
func (n *Node) averagedInto(dst *gossip.Value) {
	n.localInto(dst)
	count := 1.0
	k := -1
	for _, j := range n.e.Live() {
		k = n.e.NextEdge(k, j)
		if !n.known[k] {
			continue
		}
		dst.AddInPlace(n.e.Slot(2*k + 1))
		count++
	}
	scale := 1 / count
	for k := range dst.X {
		dst.X[k] *= scale
	}
	dst.W *= scale
}

// FillMessage implements gossip.Protocol: move the target's estimate
// toward the local average by adjusting the edge flow, then ship the
// flow and the average.
func (n *Node) FillMessage(target int, msg *gossip.Message) {
	k := n.e.Edge(target)
	if k < 0 {
		panic("flowupdate: send to non-neighbor")
	}
	n.averagedInto(&n.scratch)
	// Before first contact the neighbor's estimate is unknown; ship the
	// current flow unchanged so the neighbor learns ours without a mass
	// transfer.
	if n.known[k] {
		n.delta.Set(n.scratch)
		n.delta.SubInPlace(n.e.Slot(2*k + 1))
		n.e.AddSlot(2*k, n.delta)
	}
	msg.From, msg.To, msg.Kind = n.id, target, gossip.KindData
	msg.C, msg.R = 0, 0
	msg.Flow1.Set(n.e.Slot(2 * k))
	msg.Flow2.Set(n.scratch)
}

// Receive implements gossip.Protocol: adopt the sender's flow (negated)
// and remember its estimate.
func (n *Node) Receive(msg gossip.Message) {
	k := n.e.Edge(msg.From)
	if k < 0 || msg.Flow1.Width() != n.e.Width() || msg.Flow2.Width() != n.e.Width() {
		return
	}
	if !msg.Flow1.Finite() || !msg.Flow2.Finite() {
		return // detectably corrupted payload: discard, as in push-flow
	}
	n.e.NegSlot(2*k, msg.Flow1)
	n.e.SetSlot(2*k+1, msg.Flow2)
	n.known[k] = true
}

// EstimateInto implements gossip.Protocol.
func (n *Node) EstimateInto(dst []float64) []float64 {
	n.localInto(&n.scratch)
	return n.scratch.EstimateInto(dst)
}

// OnLinkFailure implements gossip.Protocol: zero the edge flow, forget
// the neighbor's estimate and stop using the link.
func (n *Node) OnLinkFailure(neighbor int) {
	if k := n.e.Fail(neighbor); k >= 0 {
		n.e.ZeroEdge(k)
		n.known[k] = false
	}
}

// OnLinkRecover implements gossip.Protocol: re-admit a neighbor
// evicted by OnLinkFailure. The edge restarts with a zero flow and no
// remembered estimate, exactly as after Reset; the averaging dynamics
// re-learn the neighbor's state from its next message.
func (n *Node) OnLinkRecover(neighbor int) {
	if k := n.e.Recover(neighbor); k >= 0 {
		n.known[k] = false
	}
}

// LiveNeighbors implements gossip.Protocol.
func (n *Node) LiveNeighbors() []int32 { return n.e.Live() }

// Flow implements gossip.Flows.
func (n *Node) Flow(neighbor int) gossip.Value {
	if k := n.e.Edge(neighbor); k >= 0 {
		return n.e.Slot(2 * k).Clone()
	}
	return gossip.NewValue(n.e.Width())
}

// EdgeView implements gossip.Protocol for the metrics anti-symmetry
// probe: slot 0 of each edge is its flow (slot 1, the last estimate, is
// not), with no exemption.
func (n *Node) EdgeView() (*gossip.EdgeStore, int, bool) { return &n.e, 1, false }

// LocalValueInto implements gossip.Protocol.
func (n *Node) LocalValueInto(dst *gossip.Value) { n.localInto(dst) }

// OnNeighborJoin implements gossip.Protocol: admit a brand-new
// neighbor with a zero flow and no remembered estimate (mass-neutral by
// construction). An edge recreated onto a neighbor we already know
// reduces to reintegration.
func (n *Node) OnNeighborJoin(neighbor int) {
	k := n.e.Join(neighbor, &n.init, &n.scratch, &n.delta)
	if k == len(n.known) {
		n.known = append(n.known, false)
	} else if k >= 0 {
		n.known[k] = false
	}
}

// AbsorbMass implements gossip.Protocol: fold a gracefully
// departing neighbor's surplus into this node's own contribution.
func (n *Node) AbsorbMass(v gossip.Value) {
	n.init.AddInPlace(v)
}

// SetInput implements gossip.Protocol: live-monitoring input change.
func (n *Node) SetInput(v gossip.Value) {
	n.init.Set(v)
}
