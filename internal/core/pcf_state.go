package core

// Checkpoint support: PCF's mutable state serialized into flat snapshot
// streams (gossip.Protocol's SaveState and LoadState). The flat edge
// store makes this a handful of bulk copies: the slot payloads and the
// slot weights are one copy each, written with no length prefix so the
// stream is exactly the per-slot payloads followed by the per-slot
// weights; only the (c, r) control pairs, the frozen pre-eviction edge
// snapshots and the live list need element walks. The live list is
// serialized verbatim — its order encodes the reintegration history and
// feeds the engine's target draw, so sorting or rebuilding it would
// break bit-identical replay.

import "pcfreduce/internal/gossip"

// SaveState implements gossip.Protocol.
func (n *Node) SaveState(w *gossip.StateWriter) {
	w.PutValue(n.init)
	w.PutValue(n.phi)
	n.e.SaveSlots(w)
	for k := range n.c {
		w.PutByte(n.c[k])
		w.PutU64(n.r[k])
	}
	for k := range n.c {
		s := n.savedEdge(k)
		if s == nil {
			w.PutBool(false)
			continue
		}
		w.PutBool(true)
		w.PutValue(s.f[0])
		w.PutValue(s.f[1])
		w.PutByte(s.c)
		w.PutU64(s.r)
	}
	n.e.SaveLive(w)
}

// LoadState implements gossip.Protocol. The node must have been
// Reset with the same (id, neighbors, width) the snapshot was taken
// under; failures surface via the reader's sticky error. State no run
// can produce latches gossip.ErrStateInvalid: a control byte no run
// reaches (validControl; another active slot would address another
// edge's slots) and a live neighbor whose edge holds a frozen eviction
// snapshot (OnLinkRecover clears it).
func (n *Node) LoadState(r *gossip.StateReader) {
	r.Value(&n.init)
	r.Value(&n.phi)
	n.e.LoadSlots(r)
	for k := range n.c {
		n.c[k] = r.Byte()
		n.r[k] = r.U64()
		if !validControl(n.c[k]) {
			r.Invalid()
		}
	}
	n.saved = nil
	for k := range n.c {
		if !r.Bool() {
			continue
		}
		s := &edgeSnapshot{f: [2]gossip.Value{gossip.NewValue(n.e.Width()), gossip.NewValue(n.e.Width())}}
		r.Value(&s.f[0])
		r.Value(&s.f[1])
		s.c = r.Byte()
		s.r = r.U64()
		if !validControl(s.c) {
			r.Invalid()
		}
		if n.saved == nil {
			n.saved = make([]*edgeSnapshot, len(n.c))
		}
		n.saved[k] = s
	}
	n.e.LoadLive(r)
	for k := range n.saved {
		if n.saved[k] != nil && n.e.IsLive(k) {
			r.Invalid()
		}
	}
}
