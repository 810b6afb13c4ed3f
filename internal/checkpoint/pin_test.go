package checkpoint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

var updatePin = flag.Bool("update-pin", false, "rewrite testdata/pcf_pin.ckpt from the current PCF layout")

const pinPath = "testdata/pcf_pin.ckpt"

// pinEngine builds the sharded PCF engine behind the pinned checkpoint:
// hypercube(4), robust PCF, two shards. With plan set it also carries
// the run's history — a notified failure of link 0–1 (both endpoints
// freeze a pre-eviction edge snapshot) and a join of node 16 wired to
// nodes 0 and 5, so two nodes grow from 4 to 5 neighbours.
func pinEngine() (*sim.Engine, *fault.Plan) {
	return pinEngineOf(func() gossip.Protocol { return core.NewRobust() })
}

// pinEngineOf is pinEngine with another protocol.
func pinEngineOf(mk func() gossip.Protocol) (*sim.Engine, *fault.Plan) {
	g := topology.Hypercube(4)
	protos := make([]gossip.Protocol, g.N())
	for i := range protos {
		protos[i] = mk()
	}
	inputs := make([]float64, g.N())
	for i := range inputs {
		inputs[i] = float64(i)*0.625 + 0.25
	}
	e := sim.NewScalar(g, protos, inputs, gossip.Average, 11,
		sim.WithShards(2), sim.WithJoinFactory(mk))
	plan := fault.NewPlan(
		fault.LinkFailure(4, 0, 1),
		fault.NodeJoin(6, 16, 3.5, 0, 5),
	)
	return e, plan
}

func pinBytes(t *testing.T) []byte {
	t.Helper()
	e, plan := pinEngine()
	defer e.Close()
	e.Run(sim.RunConfig{MaxRounds: 14, OnRound: plan.OnRound})
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return Encode(&Checkpoint{Snap: snap})
}

// TestPCFCheckpointPinned pins the PCF node snapshot encoding across
// releases: a checkpoint written by an earlier layout of core.Node must
// decode, restore into today's engine and re-encode to the same bytes,
// and today's engine, replaying the same run, must write those bytes
// too. Run with -update-pin only when the snapshot format is meant to
// change.
func TestPCFCheckpointPinned(t *testing.T) {
	if *updatePin {
		if err := os.MkdirAll(filepath.Dir(pinPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinPath, pinBytes(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(pinPath)
	if err != nil {
		t.Fatalf("read pinned checkpoint: %v", err)
	}
	ck, err := Decode(want)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	e, _ := pinEngine()
	defer e.Close()
	if err := e.Restore(ck.Snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if e.N() != 17 || !e.Alive(16) {
		t.Fatalf("restored engine has %d nodes (node 16 alive %v), want the joined node", e.N(), e.Alive(16))
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if got := Encode(&Checkpoint{Snap: snap}); !bytes.Equal(got, want) {
		t.Fatalf("restored checkpoint re-encodes to %d bytes differing from the pinned %d", len(got), len(want))
	}
	if got := pinBytes(t); !bytes.Equal(got, want) {
		t.Fatalf("replayed run encodes to %d bytes differing from the pinned %d", len(got), len(want))
	}

	// The file must exercise what it pins: node 0 grew a fifth edge and
	// restored a frozen pre-eviction snapshot of its failed edge to 1.
	n0 := e.Protocol(0).(*core.Node)
	if _, ok := n0.Slots(16); !ok || len(n0.LiveNeighbors()) != 4 {
		t.Fatalf("node 0 live neighbours %v, want 4 of 5 with the joined node 16", n0.LiveNeighbors())
	}
	n0.OnLinkRecover(1)
	if f, _ := n0.Slots(1); f[0].IsZero() && f[1].IsZero() {
		t.Fatal("node 0 has no frozen snapshot of its failed edge to reinstate")
	}
}
