//go:build !race

package sim_test

import (
	"testing"
	"time"

	"pcfreduce/internal/core"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// TestBatchedRoundAmortizes holds the k-value batching floor: one
// width-16 PCF round (Step plus the Errors scan every Run round
// performs) must cost at most 16/1.5 scalar rounds, so that carrying
// 16 reductions in one engine is at least 1.5× cheaper than running 16
// engines. Both sides are timed on the same host in the same process,
// which makes the ratio machine-independent; a per-value cost creeping
// into the batched path (a per-component allocation, dispatch or
// interface call) drives it towards 1. Timing is distorted by the race
// detector, hence the build tag; -short skips it like other timing
// checks.
func TestBatchedRoundAmortizes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const k, floor = 16, 1.5
	g := topology.Hypercube(8)
	scalar := bestRoundNs(g, 1)
	batched := bestRoundNs(g, k)
	speedup := k * scalar / batched
	t.Logf("%s: scalar %.0f ns/round, width-%d %.0f ns/round, speedup %.2fx", g.Name(), scalar, k, batched, speedup)
	if speedup < floor {
		t.Errorf("width-%d round only %.2fx faster than %d scalar rounds, want ≥ %.1fx", k, speedup, k, floor)
	}
}

// bestRoundNs times one Step+Errors round of a warmed-up width-k PCF
// engine on g: the fastest of three 300-round runs, the usual
// noise-robust estimate on a shared host.
func bestRoundNs(g *topology.Graph, k int) float64 {
	const rounds = 300
	n := g.N()
	e := sim.New(g, fuzzProtos(n, func() gossip.Protocol { return core.NewEfficient() }), batchInputs(n, k), 1)
	defer e.Close()
	for r := 0; r < 96; r++ { // inbox and free-list high-water marks settle
		e.Step()
		e.Errors()
	}
	best := time.Duration(0)
	for range 3 {
		start := time.Now()
		for r := 0; r < rounds; r++ {
			e.Step()
			e.Errors()
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / rounds
}
