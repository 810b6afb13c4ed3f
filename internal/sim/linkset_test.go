package sim

import "testing"

// TestLinkSetCounts checks the per-node incident counts that let
// unreachable skip the hash: a node touches the set exactly while one
// of its links is a member, whichever endpoint order added or removed
// it, and repeated adds or removes do not skew the counts.
func TestLinkSetCounts(t *testing.T) {
	var s linkSet
	if s.touches(0) || s.has(0, 1) {
		t.Fatal("empty set reports a member")
	}
	s.add(5, 2)
	s.add(2, 5)
	s.add(2, 7)
	for _, c := range []struct {
		i    int
		want bool
	}{{2, true}, {5, true}, {7, true}, {0, false}, {6, false}, {100, false}} {
		if got := s.touches(c.i); got != c.want {
			t.Errorf("after adds: touches(%d) = %v, want %v", c.i, got, c.want)
		}
	}
	if !s.has(2, 5) || !s.has(5, 2) || s.has(5, 7) {
		t.Error("has disagrees with the added links")
	}
	s.remove(5, 2)
	s.remove(2, 5)
	s.remove(5, 7)
	if s.touches(5) || !s.touches(2) || !s.touches(7) || s.has(2, 5) {
		t.Errorf("after removing (2,5): counts %v", s.count)
	}
	s.reset()
	if s.touches(2) || s.touches(7) || s.has(2, 7) {
		t.Errorf("after reset: counts %v, members %v", s.count, s.m)
	}
}
