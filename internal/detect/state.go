package detect

// Checkpoint support: a detector's suspicion state serialized into the
// flat snapshot streams of internal/gossip. The per-neighbor records
// are flattened in ascending neighbor-id order — the map's iteration
// order must never leak into a snapshot — and each record carries its
// ring buffer verbatim (contents, write position and running moments),
// so a restored φ-accrual detector produces bit-identical suspicion
// levels. LoadState targets a detector freshly built by New with the
// same Config and neighbor set the snapshot was taken under.

import (
	"sort"

	"pcfreduce/internal/gossip"
)

// SaveState appends the detector's full mutable state to w.
func (d *Detector) SaveState(w *gossip.StateWriter) {
	ids := make([]int, 0, len(d.nbrs))
	for j := range d.nbrs {
		ids = append(ids, j)
	}
	sort.Ints(ids)
	w.PutU64(uint64(len(ids)))
	for _, j := range ids {
		ns := d.nbrs[j]
		w.PutI32(int32(j))
		w.PutBool(ns.suspected)
		w.PutBool(ns.removed)
		w.PutF64(ns.lastHeard)
		w.PutU64(uint64(len(ns.samples)))
		w.PutF64s(ns.samples)
		w.PutI32(int32(ns.next))
		w.PutF64(ns.sum)
		w.PutF64(ns.sumSq)
	}
	w.PutU64(uint64(d.Suspicions))
	w.PutU64(uint64(d.Reintegrations))
}

// LoadState reads state written by SaveState back into d, which must
// monitor the same neighbor set. Failures surface via the reader's
// sticky error: a truncated stream as gossip.ErrStateUnderflow, a
// neighbor count or id this detector does not monitor as
// gossip.ErrStateInvalid.
func (d *Detector) LoadState(r *gossip.StateReader) {
	count := int(r.U64())
	if r.Err() != nil {
		return
	}
	if count != len(d.nbrs) {
		r.Invalid()
		return
	}
	for range count {
		j := int(r.I32())
		if r.Err() != nil {
			return
		}
		ns, ok := d.nbrs[j]
		if !ok {
			r.Invalid()
			return
		}
		ns.suspected = r.Bool()
		ns.removed = r.Bool()
		ns.lastHeard = r.F64()
		sl := int(r.U64())
		xs := r.F64s(sl)
		if xs == nil {
			return
		}
		ns.samples = append(ns.samples[:0], xs...)
		ns.next = int(r.I32())
		ns.sum = r.F64()
		ns.sumSq = r.F64()
	}
	d.Suspicions = int(r.U64())
	d.Reintegrations = int(r.U64())
}
