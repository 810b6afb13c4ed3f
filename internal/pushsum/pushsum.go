// Package pushsum implements the push-sum gossip aggregation algorithm of
// Kempe, Dobra and Gehrke (FOCS 2003), the non-fault-tolerant ancestor of
// the push-flow and push-cancel-flow algorithms.
//
// Every node holds a mass (value, weight). In each activation it keeps
// half of its mass and pushes the other half to a random neighbor;
// receivers add incoming mass to their own. The estimate X/W at every
// node converges to (Σ Xᵢ(0)) / (Σ Wᵢ(0)) in O(log n + log 1/ε) rounds on
// well-connected topologies.
//
// Push-sum relies on global mass conservation: a single lost or corrupted
// message permanently biases the result at every node (paper Sec. II-A).
// It is included as the baseline whose fragility motivates the flow-based
// algorithms.
package pushsum

import (
	"pcfreduce/internal/gossip"
)

// Node is the push-sum state machine for a single node. Push-sum keeps
// no per-edge state, so its edge store (gossip.EdgeStore) has no slots
// and holds only the neighbor and live lists; mass and lastInput are
// carved from its float block.
type Node struct {
	id        int
	e         gossip.EdgeStore
	mass      gossip.Value
	lastInput gossip.Value // for SetInput deltas (live monitoring)
}

// New returns an uninitialized push-sum node; callers must Reset it
// (engines do this automatically).
func New() *Node { return &Node{} }

// Reset implements gossip.Protocol. Repeated Resets reuse the node's
// buffers, so restarting a trial on a pooled protocol instance does not
// allocate.
func (n *Node) Reset(node int, neighbors []int32, init gossip.Value) {
	n.e.Reset(neighbors, init.Width(), 0, &n.mass, &n.lastInput)
	n.id = node
	n.mass.Set(init)
	n.lastInput.Set(init)
}

// FillMessage implements gossip.Protocol: halve the local mass and ship
// the other half.
func (n *Node) FillMessage(target int, msg *gossip.Message) {
	msg.From, msg.To, msg.Kind = n.id, target, gossip.KindData
	msg.C, msg.R = 0, 0
	msg.Flow1.CopyFrom(n.mass)
	msg.Flow1.HalfInPlace()
	n.mass.SubInPlace(msg.Flow1)
	msg.Flow2.X = msg.Flow2.X[:0]
	msg.Flow2.W = 0
}

// Receive implements gossip.Protocol: fold the received mass in.
func (n *Node) Receive(msg gossip.Message) {
	if msg.Flow1.Width() != n.mass.Width() || !msg.Flow1.Finite() {
		// Malformed or detectably corrupted message: discard. Unlike
		// the flow algorithms, discarding does NOT make push-sum safe —
		// the sender already gave the mass away, so it is permanently
		// lost (the fragility the paper's Sec. II-A describes).
		return
	}
	n.mass.AddInPlace(msg.Flow1)
}

// EstimateInto implements gossip.Protocol.
func (n *Node) EstimateInto(dst []float64) []float64 { return n.mass.EstimateInto(dst) }

// LocalValueInto implements gossip.Protocol.
func (n *Node) LocalValueInto(dst *gossip.Value) { dst.Set(n.mass) }

// OnLinkFailure implements gossip.Protocol. Push-sum has no per-link
// state to repair; it can only stop using the link. Mass already in
// flight on the link is irrecoverably lost — the fragility the flow
// algorithms fix.
func (n *Node) OnLinkFailure(neighbor int) {
	n.e.Fail(neighbor)
}

// OnLinkRecover implements gossip.Protocol: resume using the link.
// Push-sum keeps no per-link state, so reintegration is pure membership;
// mass lost to messages dropped during the outage stays lost (the same
// fragility OnLinkFailure documents).
func (n *Node) OnLinkRecover(neighbor int) {
	n.e.Recover(neighbor)
}

// LiveNeighbors implements gossip.Protocol.
func (n *Node) LiveNeighbors() []int32 { return n.e.Live() }

// EdgeView implements gossip.Protocol: push-sum keeps no flows, so the
// anti-symmetry probe has nothing to check.
func (n *Node) EdgeView() (*gossip.EdgeStore, int, bool) { return &n.e, 0, false }

// OnNeighborJoin implements gossip.Protocol. Push-sum keeps no
// per-edge state, so admitting a brand-new neighbor is pure membership;
// an edge recreated onto a previously failed neighbor reduces to
// reintegration.
func (n *Node) OnNeighborJoin(neighbor int) {
	n.e.Join(neighbor, &n.mass, &n.lastInput)
}

// AbsorbMass implements gossip.Protocol: fold a gracefully
// departing neighbor's surplus into the local mass, keeping the global
// sum over the live roster exact.
func (n *Node) AbsorbMass(v gossip.Value) {
	n.mass.AddInPlace(v)
}

// SetInput implements gossip.Protocol: the input delta is added to
// the current mass (push-sum keeps no input/flow separation). Note that
// the adjustment inherits push-sum's fragility: if any message carrying
// a share of it is lost, the correction is permanently incomplete.
func (n *Node) SetInput(v gossip.Value) {
	delta := v.Sub(n.lastInput)
	n.mass.AddInPlace(delta)
	n.lastInput.Set(v)
}
