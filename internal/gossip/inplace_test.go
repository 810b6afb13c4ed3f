package gossip

import "testing"

func TestHalfInPlaceMatchesHalf(t *testing.T) {
	v := Vector([]float64{3, -7}, 5)
	want := v.Half()
	v.HalfInPlace()
	if !v.Equal(want) {
		t.Fatalf("HalfInPlace = %v, want %v", v, want)
	}
}

func TestCopyFromKeepsCapacity(t *testing.T) {
	v := NewValue(4)
	backing := &v.X[:cap(v.X)][0]
	// Copy a zero-width value: Set would reallocate to length 0 and lose
	// the backing array; CopyFrom must reslice and keep it.
	v.CopyFrom(Value{})
	if v.Width() != 0 {
		t.Fatalf("CopyFrom zero-width left width %d", v.Width())
	}
	v.CopyFrom(Vector([]float64{1, 2, 3, 4}, 9))
	if &v.X[0] != backing {
		t.Fatal("CopyFrom discarded the original backing array")
	}
	if v.X[3] != 4 || v.W != 9 {
		t.Fatalf("CopyFrom = %v", v)
	}
	// Growing beyond capacity allocates and still copies correctly.
	v.CopyFrom(Vector([]float64{1, 2, 3, 4, 5}, 1))
	if v.Width() != 5 || v.X[4] != 5 {
		t.Fatalf("CopyFrom growth = %v", v)
	}
}

func TestEstimateIntoMatchesEstimate(t *testing.T) {
	v := Vector([]float64{6, 9, -3}, 3)
	want := v.Estimate()
	dst := make([]float64, 0, 8)
	got := v.EstimateInto(dst)
	if len(got) != len(want) {
		t.Fatalf("EstimateInto length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EstimateInto[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if cap(got) != 8 {
		t.Fatal("EstimateInto reallocated despite sufficient capacity")
	}
	// Undersized destination grows.
	grown := v.EstimateInto(make([]float64, 1))
	if len(grown) != 3 || grown[2] != want[2] {
		t.Fatalf("EstimateInto growth = %v", grown)
	}
}
