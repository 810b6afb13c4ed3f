package flowupdate

// Checkpoint support: Flow Updating's mutable
// state is the input value, the flow payloads, the last-reported
// neighbor estimate payloads, the slot weights (flow and estimate per
// edge), the known flags, and the live list. The payloads are written
// as two strided walks over the edge store, flows and then estimates.
// The live list must round-trip verbatim — averagedInto iterates it in
// order, so the floating-point averaging result depends on it. Scratch
// values are fully overwritten before every use and are not saved.

import "pcfreduce/internal/gossip"

// SaveState implements gossip.Protocol.
func (n *Node) SaveState(w *gossip.StateWriter) {
	w.PutValue(n.init)
	for j := 0; j < 2; j++ {
		for k := range n.known {
			w.PutF64s(n.e.Slot(2*k + j).X)
		}
	}
	w.PutF64s(n.e.Weights())
	for _, b := range n.known {
		w.PutBool(b)
	}
	n.e.SaveLive(w)
}

// LoadState implements gossip.Protocol. The node must have been
// Reset with the same (id, neighbors, width) the snapshot was taken
// under; failures surface via the reader's sticky error.
func (n *Node) LoadState(r *gossip.StateReader) {
	r.Value(&n.init)
	for j := 0; j < 2; j++ {
		for k := range n.known {
			r.ReadF64s(n.e.Slot(2*k + j).X)
		}
	}
	r.ReadF64s(n.e.Weights())
	for k := range n.known {
		n.known[k] = r.Bool()
	}
	n.e.LoadLive(r)
}
