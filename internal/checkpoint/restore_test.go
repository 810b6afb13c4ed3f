package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/flowupdate"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/sim"
)

// node0Live is node 0's live list in the pinned run: its link to 1 has
// failed and node 16 has joined.
var node0Live = []int32{2, 4, 8, 16}

// liveOffset returns the offset of node 0's live list in the
// snapshot's int32 stream, found by its contents, which must occur
// exactly once.
func liveOffset(t *testing.T, st gossip.State) int {
	t.Helper()
	at := -1
	for i := 0; i+len(node0Live) <= len(st.I32); i++ {
		if slices.Equal(st.I32[i:i+len(node0Live)], node0Live) {
			if at >= 0 {
				t.Fatalf("live list %v occurs twice in the snapshot", node0Live)
			}
			at = i
		}
	}
	if at < 0 {
		t.Fatalf("live list %v not in the snapshot", node0Live)
	}
	return at
}

// restoreEdited writes snap as a checkpoint with edit applied to a copy
// of its main stream — a file with a valid checksum — then decodes it
// and restores it into a fresh pinEngineOf(mk).
func restoreEdited(t *testing.T, snap *sim.Snapshot, mk func() gossip.Protocol, edit func(st *gossip.State)) error {
	t.Helper()
	c := *snap
	c.State = gossip.State{
		F64: slices.Clone(snap.State.F64),
		U64: slices.Clone(snap.State.U64),
		I32: slices.Clone(snap.State.I32),
		B:   slices.Clone(snap.State.B),
	}
	edit(&c.State)
	ck, err := Decode(Encode(&Checkpoint{Snap: &c}))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	e, _ := pinEngineOf(mk)
	defer e.Close()
	return e.Restore(ck.Snap)
}

// TestRestoreRejectsImpossibleProtocolState edits the pinned PCF
// checkpoint into protocol state no run can produce and re-signs it:
// node 0's live list naming a non-neighbour, a neighbour twice, or the
// neighbour whose failed edge still holds its frozen snapshot, and a
// control byte of 4 (a swap announced that never happened) on each of
// node 0's edges or in its frozen snapshot. Restore must refuse every one as gossip.ErrStateInvalid
// (accepting them crashed or silently corrupted the next Run), refuse
// a truncated stream as gossip.ErrStateUnderflow, and accept the
// unedited file.
func TestRestoreRejectsImpossibleProtocolState(t *testing.T) {
	raw, err := os.ReadFile(pinPath)
	if err != nil {
		t.Fatalf("read pinned checkpoint: %v", err)
	}
	ck, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	robust := func() gossip.Protocol { return core.NewRobust() }
	live := liveOffset(t, ck.Snap.State)
	// Node 0's bytes follow the alive/hung flags and the detector flag:
	// the control byte (active slot, crossing bits) of each of its five
	// edges, then per edge a frozen snapshot flag, the snapshot of edge 0
	// (to 1) carrying its own control byte.
	cAt := 2*ck.Snap.N + 1
	if b := ck.Snap.State.B; !slices.Equal(b[cAt:cAt+5], []byte{0, 0, 3, 1, 3}) || b[cAt+5] != 1 {
		t.Fatalf("node 0's control bytes %v do not match the pinned run", b[cAt:cAt+7])
	}

	type stateEdit struct {
		name string
		edit func(st *gossip.State)
	}
	cases := []stateEdit{
		{"live non-neighbour 9", func(st *gossip.State) { st.I32[live] = 9 }},
		{"live non-neighbour 99", func(st *gossip.State) { st.I32[live] = 99 }},
		{"live id -1", func(st *gossip.State) { st.I32[live] = -1 }},
		{"live duplicate 16", func(st *gossip.State) { st.I32[live] = 16 }},
		{"live failed-link neighbour 1", func(st *gossip.State) { st.I32[live] = 1 }},
		{"frozen snapshot control byte 4", func(st *gossip.State) { st.B[cAt+6] = 4 }},
	}
	for k := 0; k < 5; k++ {
		cases = append(cases, stateEdit{fmt.Sprintf("control byte 4 on edge %d", k), func(st *gossip.State) { st.B[cAt+k] = 4 }})
	}
	if err := restoreEdited(t, ck.Snap, robust, func(*gossip.State) {}); err != nil {
		t.Fatalf("unedited checkpoint: %v", err)
	}
	for _, tc := range cases {
		if err := restoreEdited(t, ck.Snap, robust, tc.edit); !errors.Is(err, gossip.ErrStateInvalid) {
			t.Errorf("%s: Restore returned %v, want gossip.ErrStateInvalid", tc.name, err)
		}
	}
	for _, tc := range []stateEdit{
		{"float stream cut", func(st *gossip.State) { st.F64 = st.F64[:len(st.F64)/2] }},
		{"int32 stream cut at node 0's live list", func(st *gossip.State) { st.I32 = st.I32[:live+1] }},
		{"byte stream cut", func(st *gossip.State) { st.B = st.B[:cAt+3] }},
	} {
		if err := restoreEdited(t, ck.Snap, robust, tc.edit); !errors.Is(err, gossip.ErrStateUnderflow) {
			t.Errorf("%s: Restore returned %v, want gossip.ErrStateUnderflow", tc.name, err)
		}
	}
}

// TestRestoreRejectsForeignLiveListFlowProtocols is the live-list case
// for push-flow and Flow Updating, whose live lists go through the same
// loader: node 0's list naming a non-neighbour must fail Restore.
func TestRestoreRejectsForeignLiveListFlowProtocols(t *testing.T) {
	for _, pc := range []struct {
		name string
		mk   func() gossip.Protocol
	}{
		{"pf", func() gossip.Protocol { return pushflow.New() }},
		{"fu", func() gossip.Protocol { return flowupdate.New() }},
	} {
		e, plan := pinEngineOf(pc.mk)
		e.Run(sim.RunConfig{MaxRounds: 14, OnRound: plan.OnRound})
		snap, err := e.Snapshot()
		e.Close()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", pc.name, err)
		}
		live := liveOffset(t, snap.State)
		if err := restoreEdited(t, snap, pc.mk, func(*gossip.State) {}); err != nil {
			t.Fatalf("%s: unedited checkpoint: %v", pc.name, err)
		}
		if err := restoreEdited(t, snap, pc.mk, func(st *gossip.State) { st.I32[live] = 9 }); !errors.Is(err, gossip.ErrStateInvalid) {
			t.Errorf("%s: non-neighbour on node 0's live list: Restore returned %v, want gossip.ErrStateInvalid", pc.name, err)
		}
	}
}
