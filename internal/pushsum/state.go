package pushsum

// Checkpoint support: push-sum's entire mutable
// state is its mass, the last-seen input (for SetInput deltas) and the
// live list.

import "pcfreduce/internal/gossip"

// SaveState implements gossip.Protocol.
func (n *Node) SaveState(w *gossip.StateWriter) {
	w.PutValue(n.mass)
	w.PutValue(n.lastInput)
	n.e.SaveLive(w)
}

// LoadState implements gossip.Protocol. The node must have been
// Reset with the same (id, neighbors, width) the snapshot was taken
// under; failures surface via the reader's sticky error.
func (n *Node) LoadState(r *gossip.StateReader) {
	r.Value(&n.mass)
	r.Value(&n.lastInput)
	n.e.LoadLive(r)
}
