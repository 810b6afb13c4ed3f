package core

// Checkpoint support: PCF's mutable state serialized into flat snapshot
// streams (gossip.Snapshotter). The flat node layout makes this a
// handful of bulk copies: the slot payloads (fx) and the slot weights
// (fw) are one copy each, written with no length prefix so the stream is
// exactly the per-slot payloads followed by the per-slot weights; only
// the (c, r) control pairs, the frozen pre-eviction edge snapshots and
// the live list need element walks. The live list is serialized
// verbatim — its order encodes the reintegration history and feeds the
// engine's target draw, so sorting or rebuilding it would break
// bit-identical replay. The scratch value is deliberately absent: it is
// fully overwritten before every use.

import "pcfreduce/internal/gossip"

// SaveState implements gossip.Snapshotter.
func (n *Node) SaveState(w *gossip.StateWriter) {
	w.PutValue(n.init)
	w.PutValue(n.phi)
	w.PutF64s(n.fx)
	w.PutF64s(n.fw)
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
	w.PutI32s(n.live)
}

// LoadState implements gossip.Snapshotter. The node must have been
// Reset with the same (id, neighbors, width) the snapshot was taken
// under; failures surface via the reader's sticky error.
func (n *Node) LoadState(r *gossip.StateReader) {
	r.Value(&n.init)
	r.Value(&n.phi)
	if xs := r.F64s(len(n.fx)); xs != nil {
		copy(n.fx, xs)
	}
	if ws := r.F64s(len(n.fw)); ws != nil {
		copy(n.fw, ws)
	}
	for k := range n.c {
		n.c[k] = r.Byte()
		n.r[k] = r.U64()
	}
	n.saved = nil
	for k := range n.c {
		if !r.Bool() {
			continue
		}
		s := &edgeSnapshot{f: [2]gossip.Value{gossip.NewValue(n.width), gossip.NewValue(n.width)}}
		r.Value(&s.f[0])
		r.Value(&s.f[1])
		s.c = r.Byte()
		s.r = r.U64()
		if n.saved == nil {
			n.saved = make([]*edgeSnapshot, len(n.c))
		}
		n.saved[k] = s
	}
	n.live = append(n.live[:0], r.I32s()...)
}
