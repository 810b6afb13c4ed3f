package pushflow

// Checkpoint support: push-flow's mutable state is
// the input value, the flow payloads and then the flow weights (one
// bulk copy each), and the live list, serialized verbatim to preserve
// the engine's target-draw indexing across a restore. Scratch is fully
// overwritten before every use and is not saved.

import "pcfreduce/internal/gossip"

// SaveState implements gossip.Protocol.
func (n *Node) SaveState(w *gossip.StateWriter) {
	w.PutValue(n.init)
	n.e.SaveSlots(w)
	n.e.SaveLive(w)
}

// LoadState implements gossip.Protocol. The node must have been
// Reset with the same (id, neighbors, width) the snapshot was taken
// under; failures surface via the reader's sticky error.
func (n *Node) LoadState(r *gossip.StateReader) {
	r.Value(&n.init)
	n.e.LoadSlots(r)
	n.e.LoadLive(r)
}
