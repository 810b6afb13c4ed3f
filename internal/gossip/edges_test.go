package gossip

import (
	"math"
	"slices"
	"testing"
)

// filledStore returns a store over neighbors 1..deg with the given slot
// count at width 3, every slot and both vecs holding distinct nonzero
// values, and the neighbor with id 5 failed.
func filledStore(deg, slots int, vecs ...*Value) *EdgeStore {
	nbrs := make([]int32, deg)
	for k := range nbrs {
		nbrs[k] = int32(k + 1)
	}
	s := &EdgeStore{}
	s.Reset(nbrs, 3, slots, vecs...)
	for i := range s.w {
		s.SetSlot(i, Vector([]float64{float64(i) / 3, -float64(i), 0.1 * float64(i+1)}, float64(i)+0.5))
	}
	for i, v := range vecs {
		v.Set(Vector([]float64{1.0 / 7, float64(i), -2}, 1))
	}
	s.Fail(5)
	return s
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestEdgeStoreJoinCrossesMapCutoff grows a store from denseScanMax to
// denseScanMax+2 neighbors, the point where edge lookup switches from
// the linear scan to the id map, for every slot count a protocol uses:
// every existing edge must keep its index, id and slots bitwise, the
// live order and the vecs must be unchanged, and the new edges must
// start with zero slots at the end of the live list.
func TestEdgeStoreJoinCrossesMapCutoff(t *testing.T) {
	for _, slots := range []int{0, 1, 2} {
		var a, b Value
		s := filledStore(denseScanMax, slots, &a, &b)
		x, w := slices.Clone(s.Payloads()), slices.Clone(s.Weights())
		nbr, live := slices.Clone(s.nbr), slices.Clone(s.Live())
		va, vb := a.Clone(), b.Clone()

		for i, id := range []int{100, 101} {
			if k := s.Join(id, &a, &b); k != denseScanMax+i {
				t.Fatalf("slots %d: join of %d got edge %d, want %d", slots, id, k, denseScanMax+i)
			}
		}
		if s.idx == nil {
			t.Fatalf("slots %d: no id map above %d neighbors", slots, denseScanMax)
		}
		if !sameFloats(s.Payloads()[:len(x)], x) || !sameFloats(s.Weights()[:len(w)], w) {
			t.Fatalf("slots %d: join changed an existing edge's slots", slots)
		}
		if !slices.Equal(s.nbr, append(nbr, 100, 101)) || !slices.Equal(s.Live(), append(live, 100, 101)) {
			t.Fatalf("slots %d: neighbors %v live %v after the joins", slots, s.nbr, s.Live())
		}
		if !sameFloats(a.X, va.X) || a.W != va.W || !sameFloats(b.X, vb.X) || b.W != vb.W {
			t.Fatalf("slots %d: join moved a vec", slots)
		}
		for _, v := range append(s.Payloads()[len(x):], s.Weights()[len(w):]...) {
			if v != 0 {
				t.Fatalf("slots %d: joined edge does not start at zero", slots)
			}
		}
		for k, id := range s.nbr {
			if s.Edge(int(id)) != k {
				t.Fatalf("slots %d: neighbor %d maps to edge %d, want %d", slots, id, s.Edge(int(id)), k)
			}
		}
		if s.Edge(99) != -1 {
			t.Fatalf("slots %d: unknown id found", slots)
		}

		// A recreated edge onto the failed neighbor reduces to recover:
		// same edge, zeroed, appended to the live list; no other edge
		// changes.
		if k := s.Join(5, &a, &b); k != 4 || s.Live()[len(s.Live())-1] != 5 || s.Degree() != denseScanMax+2 {
			t.Fatalf("slots %d: recreated edge got %d, live %v, degree %d", slots, k, s.Live(), s.Degree())
		}
		if k := s.Join(5, &a, &b); k != -1 {
			t.Fatalf("slots %d: joining a live neighbor got edge %d", slots, k)
		}
		clear(x[4*slots*3 : 5*slots*3])
		clear(w[4*slots : 5*slots])
		if !sameFloats(s.Payloads()[:len(x)], x) || !sameFloats(s.Weights()[:len(w)], w) {
			t.Fatalf("slots %d: recover did not zero exactly the recovered edge", slots)
		}
	}
}

// TestEdgeStoreResetInPlace checks that a Reset over the same
// neighborhood, width and slot count zeroes the block in place without
// allocating, on both sides of the id-map cutoff, and that changing
// the slot count reallocates.
func TestEdgeStoreResetInPlace(t *testing.T) {
	for _, deg := range []int{3, denseScanMax + 8} {
		var a Value
		s := filledStore(deg, 2, &a)
		nbrs := slices.Clone(s.nbr)
		block := &s.Payloads()[0]
		if allocs := testing.AllocsPerRun(20, func() { s.Reset(nbrs, 3, 2, &a) }); allocs != 0 {
			t.Fatalf("degree %d: in-place Reset allocates %v times", deg, allocs)
		}
		if &s.Payloads()[0] != block || !slices.Equal(s.Live(), nbrs) || !a.IsZero() {
			t.Fatalf("degree %d: in-place Reset moved the block or left state behind", deg)
		}
		for _, v := range append(s.Payloads(), s.Weights()...) {
			if v != 0 {
				t.Fatalf("degree %d: in-place Reset left a slot nonzero", deg)
			}
		}
		s.Reset(nbrs, 3, 1, &a)
		if len(s.Weights()) != deg {
			t.Fatalf("degree %d: slot count change kept %d weights", deg, len(s.Weights()))
		}
	}
}

// TestEdgeStoreLoadLiveRejects checks that a live list no run of this
// neighborhood can produce — an unknown id, a duplicate, or more ids
// than neighbors — latches the reader's error, and that a valid list
// round-trips in order.
func TestEdgeStoreLoadLiveRejects(t *testing.T) {
	s := filledStore(4, 1)
	for _, tc := range []struct {
		live []int32
		ok   bool
	}{
		{[]int32{3, 1, 4}, true},
		{[]int32{}, true},
		{[]int32{3, 9}, false},
		{[]int32{3, -1}, false},
		{[]int32{3, 3}, false},
		{[]int32{1, 2, 3, 4, 1}, false},
	} {
		w := &StateWriter{}
		w.PutI32s(tc.live)
		r := NewStateReader(w.State)
		s.LoadLive(r)
		if ok := r.Err() == nil; ok != tc.ok {
			t.Fatalf("live %v: accepted %v, want %v", tc.live, ok, tc.ok)
		}
		if tc.ok && !slices.Equal(s.Live(), tc.live) {
			t.Fatalf("live %v loaded as %v", tc.live, s.Live())
		}
	}
}

// TestEdgeStoreAntiSymViolationsMatchesValues checks the flat-block
// anti-symmetry test against the Value algebra it replaces, at width 3
// on every combination of slot contents that decides it: exact mirror,
// a mismatch in the weight or in one component, a zero side, a
// negative-zero mirror, both sides zero. For each of the first flows
// slot pairs it must count exactly when !a.Equal(b.Neg()), and with
// zeroExempt also neither side IsZero.
func TestEdgeStoreAntiSymViolationsMatchesValues(t *testing.T) {
	a := Vector([]float64{0.5, -2, 3}, 1.25)
	cases := []struct {
		name string
		x, y Value
	}{
		{"mirror", a, a.Neg()},
		{"weight differs", a, Vector([]float64{-0.5, 2, -3}, -1)},
		{"component differs", a, Vector([]float64{-0.5, 2.5, -3}, -1.25)},
		{"zero side", a, NewValue(3)},
		{"negative zero mirror", Vector([]float64{0, 1, 0}, 0), Vector([]float64{math.Copysign(0, -1), -1, 0}, 0)},
		{"both zero", NewValue(3), NewValue(3)},
		{"weight-only zero", Vector([]float64{1, 0, 0}, 0), Vector([]float64{1, 0, 0}, 0)},
	}
	for _, slots := range []int{1, 2} {
		s, u := &EdgeStore{}, &EdgeStore{}
		s.Reset([]int32{1, 2}, 3, slots)
		u.Reset([]int32{0, 2}, 3, slots)
		for _, c1 := range cases {
			for _, c2 := range cases {
				// Edge 1 of s is node 0's edge to 1; edge 0 of u is node 1's
				// edge to 0. Slot f of each carries case f's pair.
				pair := []struct{ x, y Value }{{c1.x, c1.y}, {c2.x, c2.y}}[:slots]
				for f, p := range pair {
					s.SetSlot(slots+f, p.x)
					u.SetSlot(f, p.y)
				}
				for flows := 1; flows <= slots; flows++ {
					for _, exempt := range []bool{false, true} {
						want := 0
						for _, p := range pair[:flows] {
							if !p.x.Equal(p.y.Neg()) && !(exempt && (p.x.IsZero() || p.y.IsZero())) {
								want++
							}
						}
						if got := s.AntiSymViolations(1, u, 0, flows, exempt); got != want {
							t.Errorf("slots=%d flows=%d %s/%s exempt=%v: %d violations, want %d", slots, flows, c1.name, c2.name, exempt, got, want)
						}
					}
				}
			}
		}
	}
}

// TestEdgeStoreNextEdgeMatchesEdge walks the live list with NextEdge,
// as Flow Updating's averaging does, through failures, a recovery and
// a join, on both sides of the id-map cutoff: every entry must resolve
// to Edge's index.
func TestEdgeStoreNextEdgeMatchesEdge(t *testing.T) {
	for _, deg := range []int{6, denseScanMax + 4} {
		s := filledStore(deg, 2)
		check := func(step string) {
			t.Helper()
			k := -1
			for _, j := range s.Live() {
				k = s.NextEdge(k, j)
				if want := s.Edge(int(j)); k != want {
					t.Fatalf("deg %d, %s: NextEdge(%d) = %d, Edge = %d", deg, step, j, k, want)
				}
			}
		}
		check("one failure")
		s.Fail(2)
		check("two failures")
		s.Recover(5)
		check("recovery")
		s.Join(1000)
		check("join")
	}
	if k := filledStore(6, 2).NextEdge(-1, 99); k != -1 {
		t.Fatalf("NextEdge of a non-neighbor = %d, want -1", k)
	}
}
