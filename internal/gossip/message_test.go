package gossip

import (
	"strings"
	"testing"
	"unsafe"
)

// TestMessageSize: Kind and C share one padding word, so a message is
// 96 bytes on 64-bit platforms rather than 104. The simulator keeps two
// per node.
func TestMessageSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes below are for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Message{}); got != 96 {
		t.Errorf("Message is %d bytes, want 96", got)
	}
}

func TestMessageCloneIsDeep(t *testing.T) {
	m := Message{
		From:  1,
		To:    2,
		Flow1: Vector([]float64{1, 2}, 3),
		Flow2: Vector([]float64{4, 5}, 6),
		C:     1,
		R:     7,
	}
	c := m.Clone()
	c.Flow1.X[0] = 99
	c.Flow2.W = -1
	if m.Flow1.X[0] != 1 || m.Flow2.W != 6 {
		t.Fatalf("Clone aliases flows: %v", m)
	}
	if c.From != 1 || c.To != 2 || c.C != 1 || c.R != 7 {
		t.Fatalf("Clone lost scalar fields: %v", c)
	}
}

func TestMessageString(t *testing.T) {
	m := Message{From: 3, To: 4, Flow1: Scalar(1, 1), Flow2: Scalar(0, 0), C: 2, R: 9}
	s := m.String()
	for _, want := range []string{"3", "4", "c:2", "r:9"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestValueString(t *testing.T) {
	s := Scalar(1.5, 2).String()
	if !strings.Contains(s, "1.5") || !strings.Contains(s, "2") {
		t.Fatalf("Value.String() = %q", s)
	}
}
