package gossip_test

import (
	"math"
	"strings"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/flowupdate"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/pushsum"
)

// FillMessage sets every field of the message itself — From, To, Kind,
// C, R and both flows — because the engine reuses its message slots
// without resetting them. For each built-in protocol, a node filling a
// message full of junk must produce exactly what its twin fills into a
// zero message, exchange after exchange, while peers answer both twins
// alike.
func TestFillMessageSetsEveryField(t *testing.T) {
	for _, p := range []struct {
		name string
		new  func() gossip.Protocol
	}{
		{"pcf-efficient", func() gossip.Protocol { return core.NewEfficient() }},
		{"pcf-robust", func() gossip.Protocol { return core.NewRobust() }},
		{"push-flow", func() gossip.Protocol { return pushflow.New() }},
		{"flow-updating", func() gossip.Protocol { return flowupdate.New() }},
		{"push-sum", func() gossip.Protocol { return pushsum.New() }},
	} {
		t.Run(p.name, func(t *testing.T) {
			// Node 0 of the star 0–{1, 2}: twin a fills zero messages,
			// twin b junk ones.
			neighbors := []int32{1, 2}
			init := gossip.Vector([]float64{3, -1.5}, 1)
			a, b := p.new(), p.new()
			a.Reset(0, neighbors, init)
			b.Reset(0, neighbors, init)
			peers := make(map[int]gossip.Protocol)
			for _, j := range neighbors {
				peers[int(j)] = p.new()
				peers[int(j)].Reset(int(j), []int32{0}, gossip.Vector([]float64{float64(j), 2}, 1))
			}
			roleChanged := false
			for step := range 16 {
				target := int(neighbors[step%len(neighbors)])
				var want gossip.Message
				a.FillMessage(target, &want)
				got := gossip.Message{
					From: 77, To: 99, Kind: gossip.KindKeepalive, C: 7, R: 12345,
					Flow1: gossip.Vector([]float64{math.NaN(), 8}, -4),
					Flow2: gossip.Vector([]float64{5, math.Inf(1)}, 9),
				}
				b.FillMessage(target, &got)
				if !sameMessage(got, want) {
					t.Fatalf("step %d: FillMessage over junk gave %v, over a zero message %v", step, got, want)
				}
				roleChanged = roleChanged || want.R > 0
				peer := peers[target]
				peer.Receive(want)
				var reply gossip.Message
				peer.FillMessage(0, &reply)
				a.Receive(reply)
				b.Receive(reply)
			}
			if strings.HasPrefix(p.name, "pcf") && !roleChanged {
				t.Error("PCF never changed roles in the exchange, so R was only ever 0")
			}
		})
	}
}

// sameMessage reports whether two messages agree field for field, the
// flows bit for bit and in width.
func sameMessage(a, b gossip.Message) bool {
	return a.From == b.From && a.To == b.To && a.Kind == b.Kind && a.C == b.C && a.R == b.R &&
		sameValue(a.Flow1, b.Flow1) && sameValue(a.Flow2, b.Flow2)
}

func sameValue(a, b gossip.Value) bool {
	if len(a.X) != len(b.X) || math.Float64bits(a.W) != math.Float64bits(b.W) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}
