package sim

import (
	"math"
	"runtime"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/detect"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/topology"
)

func simContainsInt(list []int, x int) bool {
	for _, v := range list {
		if v == x {
			return true
		}
	}
	return false
}

// spread returns max−min of the alive nodes' scalar estimates — the
// oracle-free internal-consensus measure.
func spread(e *Engine) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, est := range e.Estimates() {
		if est == nil {
			continue
		}
		if est[0] < lo {
			lo = est[0]
		}
		if est[0] > hi {
			hi = est[0]
		}
	}
	return hi - lo
}

// A node crashes silently mid-run on the 64-node hypercube: no oracle,
// no notifications. Every neighbor's detector must suspect it, evict it
// via the PCF recovery path, and the survivors must reach consensus
// close to the survivors' aggregate — the deterministic mirror of the
// runtime's acceptance scenario.
func TestSimSilentCrashDetected(t *testing.T) {
	g := topology.Hypercube(6)
	n := g.N()
	const crash = 21
	inputs := make([]float64, n)
	mean := 0.0
	for i := 0; i < n; i++ {
		if i != crash {
			inputs[i] = 1 + 0.01*float64(i%9)
			mean += inputs[i]
		}
	}
	mean /= float64(n - 1)
	// The crashed node starts at the mean of the others so the oracle
	// target is unchanged by the crash; residual error then isolates the
	// absorb-semantics trade-off (mass drained into the dead links).
	inputs[crash] = mean

	e := NewScalar(g, pcfProtos(n), inputs, gossip.Average, 101,
		WithDetector(detect.Config{Timeout: 30}))
	res := e.Run(RunConfig{
		MaxRounds: 4000,
		OnRound: func(e *Engine, round int) {
			if round == 40 {
				e.CrashNodeSilent(crash)
				e.CrashNodeSilent(crash) // idempotent
			}
		},
		StallRounds: 600,
	})
	for _, j32 := range g.Neighbors(crash) {
		j := int(j32)
		if !simContainsInt(e.Suspects(j), crash) {
			t.Errorf("neighbor %d does not suspect the silently crashed node (suspects %v)", j, e.Suspects(j))
		}
	}
	if st := e.DetectorStats(); st.Suspicions < g.Degree(crash) {
		t.Errorf("only %d suspicions, want at least %d", st.Suspicions, g.Degree(crash))
	}
	if s := spread(e); s > 1e-8 {
		t.Errorf("survivors did not reach internal consensus: spread %.3e after %d rounds", s, res.Rounds)
	}
	if err := e.MaxError(); err > 5e-2 {
		t.Errorf("survivors' estimate is %.3e away from the target", err)
	}
}

// A transient outage: the link falls silent, both endpoints evict each
// other, the link heals, probes cross it, both sides reintegrate — and
// because OnLinkRecover reinstates the frozen edge state, mass is
// conserved EXACTLY and the run meets a tight oracle criterion with the
// original full-membership target.
func TestSimTransientOutageEvictsAndReintegrates(t *testing.T) {
	g := topology.Ring(16)
	e := NewScalar(g, pcfProtos(g.N()), someInputs(g.N()), gossip.Average, 102,
		WithDetector(detect.Config{Timeout: 25}))

	sawMutualSuspicion := false
	res := e.Run(RunConfig{
		MaxRounds: 6000,
		Eps:       1e-11,
		OnRound: func(e *Engine, round int) {
			switch {
			case round == 10:
				e.SilenceLink(0, 1)
			case round == 400:
				e.RestoreLink(0, 1)
			case round > 10 && round < 400:
				if simContainsInt(e.Suspects(0), 1) && simContainsInt(e.Suspects(1), 0) {
					sawMutualSuspicion = true
				}
			}
		},
	})
	if !sawMutualSuspicion {
		t.Fatal("the silenced link's endpoints never mutually suspected each other")
	}
	if !res.Converged {
		t.Fatalf("did not converge after the outage healed: %.3e after %d rounds", e.MaxError(), res.Rounds)
	}
	st := e.DetectorStats()
	if st.Suspicions < 2 || st.Reintegrations < 2 || st.Keepalives == 0 {
		t.Errorf("stats = %+v, want ≥2 suspicions, ≥2 reintegrations, >0 keepalives", st)
	}
	if s := e.Suspects(0); len(s) != 0 {
		t.Errorf("node 0 still suspects %v after reintegration", s)
	}
	if s := e.Suspects(1); len(s) != 0 {
		t.Errorf("node 1 still suspects %v after reintegration", s)
	}
}

// A hung node freezes (inbox still accumulating), gets evicted by every
// neighbor, then resumes: its queued traffic reintegrates it everywhere
// and the run converges to the unchanged full-membership target.
func TestSimHangResumeReintegrates(t *testing.T) {
	g := topology.Hypercube(4)
	const hung = 3
	e := NewScalar(g, pcfProtos(g.N()), someInputs(g.N()), gossip.Average, 103,
		WithDetector(detect.Config{Timeout: 25}))
	res := e.Run(RunConfig{
		MaxRounds: 6000,
		Eps:       1e-11,
		OnRound: func(e *Engine, round int) {
			switch round {
			case 10:
				e.HangNode(hung)
			case 300:
				e.ResumeNode(hung)
			}
		},
	})
	if !res.Converged {
		t.Fatalf("did not converge after the hung node resumed: %.3e after %d rounds", e.MaxError(), res.Rounds)
	}
	if st := e.DetectorStats(); st.Reintegrations < g.Degree(hung) {
		t.Errorf("%d reintegrations, want at least %d", st.Reintegrations, g.Degree(hung))
	}
}

// The φ-accrual policy in the round simulator: inter-arrival statistics
// are learned from the seeded schedule, silence drives φ over the
// threshold, and the crashed node is evicted by all neighbors.
func TestSimPhiAccrualPolicy(t *testing.T) {
	g := topology.Hypercube(5)
	const crash = 17
	e := NewScalar(g, pcfProtos(g.N()), someInputs(g.N()), gossip.Average, 104,
		WithDetector(detect.Config{
			Policy:       detect.PhiAccrual,
			Timeout:      40, // bootstrap until MinSamples
			PhiThreshold: 4,
		}))
	e.Run(RunConfig{
		MaxRounds: 2000,
		OnRound: func(e *Engine, round int) {
			if round == 200 { // well past the bootstrap phase
				e.CrashNodeSilent(crash)
			}
		},
		StallRounds: 600,
	})
	for _, j := range g.Neighbors(crash) {
		if !simContainsInt(e.Suspects(int(j)), crash) {
			t.Errorf("neighbor %d does not suspect the crashed node under φ-accrual", j)
		}
	}
}

// The detector must not perturb the communication schedule: it draws no
// randomness, so a fault-free run with the detector enabled produces
// BITWISE identical estimates to one without it. This is what makes
// detection experiments comparable to the paper's baseline runs.
func TestSimDetectorPreservesSchedule(t *testing.T) {
	g := topology.Hypercube(4)
	run := func(withDet bool) []float64 {
		var opts []EngineOption
		if withDet {
			opts = append(opts, WithDetector(detect.Config{Timeout: 20}))
		}
		e := NewScalar(g, pcfProtos(g.N()), someInputs(g.N()), gossip.Average, 77, opts...)
		e.Run(RunConfig{MaxRounds: 120})
		out := make([]float64, g.N())
		for i, est := range e.Estimates() {
			out[i] = est[0]
		}
		return out
	}
	plain, detected := run(false), run(true)
	for i := range plain {
		if plain[i] != detected[i] {
			t.Fatalf("node %d: %.17g (plain) vs %.17g (detector) — detector perturbed the schedule", i, plain[i], detected[i])
		}
	}
}

// Full determinism with failures: the same seed and the same silent-crash
// schedule yield bitwise identical estimates and identical detector
// statistics across runs.
func TestSimDetectorDeterminism(t *testing.T) {
	g := topology.Hypercube(5)
	run := func() ([]float64, DetectorStats) {
		e := NewScalar(g, pcfProtos(g.N()), someInputs(g.N()), gossip.Average, 55,
			WithDetector(detect.Config{Timeout: 25}))
		e.Run(RunConfig{
			MaxRounds: 600,
			OnRound: func(e *Engine, round int) {
				if round == 50 {
					e.CrashNodeSilent(9)
				}
			},
		})
		out := make([]float64, 0, g.N())
		for _, est := range e.Estimates() {
			if est != nil {
				out = append(out, est[0])
			}
		}
		return out, e.DetectorStats()
	}
	estA, statsA := run()
	estB, statsB := run()
	if statsA != statsB {
		t.Fatalf("detector stats differ across identical runs: %+v vs %+v", statsA, statsB)
	}
	for i := range estA {
		if estA[i] != estB[i] {
			t.Fatalf("estimate %d differs across identical runs: %.17g vs %.17g", i, estA[i], estB[i])
		}
	}
}

// Reintegration runs through the protocol's OnLinkRecover;
// the detector composes with plain push-sum too, where suspicion only
// prunes the target set (membership) and reintegration restores it.
func TestSimDetectorWithRobustVariant(t *testing.T) {
	g := topology.Ring(8)
	e := NewScalar(g, makeProtos(g.N(), func() gossip.Protocol { return core.NewRobust() }),
		someInputs(g.N()), gossip.Average, 105,
		WithDetector(detect.Config{Timeout: 25}))
	res := e.Run(RunConfig{
		MaxRounds: 6000,
		Eps:       1e-11,
		OnRound: func(e *Engine, round int) {
			switch round {
			case 10:
				e.SilenceLink(2, 3)
			case 300:
				e.RestoreLink(2, 3)
			}
		},
	})
	if !res.Converged {
		t.Fatalf("robust variant did not converge through evict/reintegrate: %.3e", e.MaxError())
	}
	if st := e.DetectorStats(); st.Reintegrations < 2 {
		t.Errorf("%d reintegrations, want ≥ 2", st.Reintegrations)
	}
}

// TestDetectorHeapPerNode: with a detector, building hypercube(12), its
// PCF protocols and the engine holds under 2 KB of heap per node. Each
// node's last-send record and detector scale with its degree, not with
// n (an n-long last-send row per node cost about 8·n bytes per node).
func TestDetectorHeapPerNode(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()
	g := topology.Hypercube(12)
	n := g.N()
	e := NewScalar(g, makeProtos(n, func() gossip.Protocol { return core.NewEfficient() }),
		someInputs(n), gossip.Average, 1,
		WithDetector(detect.Config{Timeout: 30}))
	perNode := float64(heap()-base) / float64(n)
	runtime.KeepAlive(e)
	if perNode >= 2048 {
		t.Fatalf("%.0f B of heap per node with a detector, want < 2048", perNode)
	}
	t.Logf("%.0f B/node", perNode)
}

// TestFixedTimeoutDetectorHeapAfterRounds: only PhiAccrual reads a
// neighbor's inter-arrival window, so a FixedTimeout detector must not
// fill one. With the window recorded regardless, hypercube(12) held
// about 9.7 KB per node after 300 rounds (64 samples per neighbor);
// without it, about 3 KB.
func TestFixedTimeoutDetectorHeapAfterRounds(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()
	g := topology.Hypercube(12)
	n := g.N()
	e := NewScalar(g, makeProtos(n, func() gossip.Protocol { return core.NewEfficient() }),
		someInputs(n), gossip.Average, 1,
		WithDetector(detect.Config{Timeout: 30}))
	for range 300 {
		e.Step()
	}
	perNode := float64(heap()-base) / float64(n)
	runtime.KeepAlive(e)
	if perNode >= 3584 {
		t.Fatalf("%.0f B of heap per node after 300 rounds with a FixedTimeout detector, want < 3584", perNode)
	}
	t.Logf("%.0f B/node", perNode)
}
