package detect

// Checkpoint support: a detector's suspicion state serialized into the
// flat snapshot streams of internal/gossip. The per-neighbor records
// are written in the detector's ascending neighbor-id order, and each
// record carries its ring buffer verbatim (contents, write position and
// running moments; all empty before the first observation),
// so a restored φ-accrual detector produces bit-identical suspicion
// levels. LoadState targets a detector freshly built by New with the
// same Config and neighbor set the snapshot was taken under.

import "pcfreduce/internal/gossip"

// SaveState appends the detector's full mutable state to w.
func (d *Detector) SaveState(w *gossip.StateWriter) {
	w.PutU64(uint64(len(d.ids)))
	for k, j := range d.ids {
		ns := &d.nbrs[k]
		a := ns.win
		if a == nil {
			a = &arrivals{}
		}
		w.PutI32(j)
		w.PutBool(ns.suspected)
		w.PutBool(ns.removed)
		w.PutF64(ns.lastHeard)
		w.PutU64(uint64(len(a.samples)))
		w.PutF64s(a.samples)
		w.PutI32(int32(a.next))
		w.PutF64(a.sum)
		w.PutF64(a.sumSq)
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
		ns := d.state(j)
		if ns == nil {
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
		a := arrivals{next: int(r.I32()), sum: r.F64(), sumSq: r.F64()}
		ns.win = nil
		if sl > 0 || a.next != 0 || a.sum != 0 || a.sumSq != 0 {
			a.samples = append([]float64(nil), xs...)
			ns.win = &a
		}
	}
	d.Suspicions = int(r.U64())
	d.Reintegrations = int(r.U64())
}
