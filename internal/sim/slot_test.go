package sim

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"pcfreduce/internal/gossip"
	"pcfreduce/internal/topology"
)

// CheckSlots verifies the message-slot lifetime rule at a round
// boundary: every queued slot is its sender's slot of the round just
// completed (2·From + (round−1) mod 2), no hung node queues a slot, no
// message is queued twice, and no free list holds a slot or a queued
// message. Exported for the external pin tests.
func (e *Engine) CheckSlots() error {
	queued := map[*gossip.Message]bool{}
	for i, in := range e.inbox {
		for _, m := range in {
			if queued[m] {
				return fmt.Errorf("round %d: message %v queued twice", e.round, m)
			}
			queued[m] = true
			if !e.isSlot(m) {
				continue
			}
			if e.hung[i] {
				return fmt.Errorf("round %d: hung node %d queues a slot", e.round, i)
			}
			k := int((uintptr(unsafe.Pointer(m)) - uintptr(unsafe.Pointer(&e.shard.slots[0]))) / unsafe.Sizeof(*m))
			if want := 2*m.From + (e.round-1)&1; k != want {
				return fmt.Errorf("round %d: node %d queues slot %d for a message from %d, want slot %d", e.round, i, k, m.From, want)
			}
		}
	}
	for s := range e.shard.local {
		for _, m := range e.shard.local[s].pool {
			if e.isSlot(m) || queued[m] {
				return fmt.Errorf("round %d: shard %d's free list holds a slot or a queued message", e.round, s)
			}
		}
	}
	return nil
}

// copyMsg renders every field of a queued message, flows bit-exact,
// for comparing it later.
func copyMsg(m *gossip.Message) string {
	bits := func(v gossip.Value) []uint64 {
		out := make([]uint64, 0, len(v.X)+1)
		for _, x := range v.X {
			out = append(out, math.Float64bits(x))
		}
		return append(out, math.Float64bits(v.W))
	}
	return fmt.Sprintf("%d→%d kind %d c %d r %d flow1 %x flow2 %x", m.From, m.To, m.Kind, m.C, m.R, bits(m.Flow1), bits(m.Flow2))
}

// TestSlotLifetimeHang hangs a node whose inbox holds messages of the
// previous round, for eight rounds while its neighbours keep sending,
// in both round models: every queued message must keep the contents it
// was delivered with, although each sender rewrites its slots every two
// rounds. HangNode must swap queued slots for pooled copies and
// delivery to a hung node must copy too; the node then resumes, drains
// its queue and the run converges.
func TestSlotLifetimeHang(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharded=%v", sharded), func(t *testing.T) {
			g := topology.Hypercube(5)
			var opts []EngineOption
			if sharded {
				opts = append(opts, WithShards(2))
			}
			e := NewScalar(g, pcfProtos(g.N()), someInputs(g.N()), gossip.Average, 11, opts...)
			defer e.Close()
			for range 10 {
				e.Step()
			}
			hung := -1
			for i, in := range e.inbox {
				if len(in) >= 2 {
					hung = i
					break
				}
			}
			if hung < 0 {
				t.Fatal("no node has two queued messages")
			}
			e.HangNode(hung)
			var want []string
			for r := 0; r < 8; r++ {
				in := e.inbox[hung]
				if len(in) < len(want) {
					t.Fatalf("round %d: hung inbox shrank to %d from %d", e.round, len(in), len(want))
				}
				for k, w := range want {
					if got := copyMsg(in[k]); got != w {
						t.Fatalf("round %d: queued message %d changed while hung:\n got  %v\n want %v", e.round, k, got, w)
					}
				}
				for _, m := range in[len(want):] {
					want = append(want, copyMsg(m))
				}
				if err := e.CheckSlots(); err != nil {
					t.Fatal(err)
				}
				e.Step()
			}
			if len(want) <= 2 {
				t.Fatalf("only %d messages queued while hung", len(want))
			}
			e.ResumeNode(hung)
			res := e.Run(RunConfig{MaxRounds: 3000, Eps: 1e-10})
			if !res.Converged {
				t.Fatalf("did not converge after resume: %.3e", e.MaxError())
			}
		})
	}
}
