package sim_test

import (
	"fmt"
	"math"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/detect"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/flowupdate"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// snapshotEngine builds the standard snapshot-test engine: 32-node
// hypercube, detector on, P shards.
func snapshotEngine(mk func() gossip.Protocol, seed int64, p int) *sim.Engine {
	g := topology.Hypercube(5)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(3*i%11) + 0.25
	}
	return sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, seed,
		sim.WithShards(p),
		sim.WithDetector(detect.Config{Timeout: 30}))
}

// snapshotPlans is the fault-plan domain of the round-trip property
// test: a silent node crash and a transient link outage, the two
// scenarios whose suspicion/eviction/reintegration state is the hardest
// part of the engine to serialize.
func snapshotPlans() map[string][]fault.Event {
	return map[string][]fault.Event{
		"silent-crash":     {fault.SilentNodeCrash(40, 5)},
		"transient-outage": fault.LinkOutage(10, 160, 0, 1),
	}
}

// TestSnapshotRestoreRoundTrip is the tentpole property: Restore(Snapshot())
// taken at round R on a DIFFERENT engine (different seed, so every field
// must come from the snapshot, none from the constructor), then stepping
// to round T, is byte-identical to the uninterrupted run — at shard
// counts 1, 2 and 8, under both fault plans, for the protocol with the
// richest state (PCF-robust saved-edge snapshots) and for flow-updating.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	const R, T = 120, 300
	protos := map[string]func() gossip.Protocol{
		"pcf-robust":    func() gossip.Protocol { return core.NewRobust() },
		"flow-updating": func() gossip.Protocol { return flowupdate.New() },
	}
	for pname, mk := range protos {
		for plname, events := range snapshotPlans() {
			for _, p := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s/%s/P=%d", pname, plname, p)
				ref := snapshotEngine(mk, 11, p)
				want := fingerprintEngine(ref, T, fault.NewPlan(events...).OnRound)

				run := snapshotEngine(mk, 11, p)
				fingerprintEngine(run, R, fault.NewPlan(events...).OnRound)
				snap, err := run.Snapshot()
				if err != nil {
					t.Fatalf("%s: Snapshot: %v", label, err)
				}

				restored := snapshotEngine(mk, 999, p) // seed must not matter
				if err := restored.Restore(snap); err != nil {
					t.Fatalf("%s: Restore: %v", label, err)
				}
				if restored.Round() != R {
					t.Fatalf("%s: restored round %d, want %d", label, restored.Round(), R)
				}
				got := fingerprintEngine(restored, T-R, fault.NewPlan(events...).OnRound)
				sameFingerprint(t, label, want, got)
			}
		}
	}
}

// TestSnapshotRestoreCrossShards proves a snapshot is portable across
// shard counts: taken at P=2, restored at P=1 and P=8, all three
// continuations match the uninterrupted P=2 run bit for bit.
func TestSnapshotRestoreCrossShards(t *testing.T) {
	const R, T = 100, 260
	mk := func() gossip.Protocol { return core.NewEfficient() }
	events := snapshotPlans()["silent-crash"]

	ref := snapshotEngine(mk, 7, 2)
	want := fingerprintEngine(ref, T, fault.NewPlan(events...).OnRound)

	run := snapshotEngine(mk, 7, 2)
	fingerprintEngine(run, R, fault.NewPlan(events...).OnRound)
	snap, err := run.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for _, p := range []int{1, 8} {
		restored := snapshotEngine(mk, 123, p)
		if err := restored.Restore(snap); err != nil {
			t.Fatalf("P=%d: Restore: %v", p, err)
		}
		got := fingerprintEngine(restored, T-R, fault.NewPlan(events...).OnRound)
		sameFingerprint(t, fmt.Sprintf("snapshot P=2 restored at P=%d", p), want, got)
	}
}

// TestRunResume checks the Run-level half of resumability: a run
// checkpointed mid-flight via RunConfig.OnCheckpoint and continued on a
// fresh engine with RunConfig.Resume reproduces the uninterrupted run's
// result — rounds, convergence and the full recorded series.
func TestRunResume(t *testing.T) {
	const every, maxRounds = 50, 220
	mk := func() gossip.Protocol { return core.NewRobust() }
	plan := func() *fault.Plan { return fault.NewPlan(snapshotPlans()["transient-outage"]...) }

	full := snapshotEngine(mk, 5, 2)
	wantRes := full.Run(sim.RunConfig{MaxRounds: maxRounds, Record: true, OnRound: plan().OnRound})

	var snap *sim.Snapshot
	var state sim.RunState
	interrupted := snapshotEngine(mk, 5, 2)
	interrupted.Run(sim.RunConfig{
		MaxRounds:       maxRounds,
		Record:          true,
		OnRound:         plan().OnRound,
		CheckpointEvery: every,
		OnCheckpoint: func(e *sim.Engine, rs sim.RunState) {
			if rs.RoundsDone != 2*every {
				return
			}
			var err error
			if snap, err = e.Snapshot(); err != nil {
				t.Fatalf("Snapshot at round %d: %v", rs.RoundsDone, err)
			}
			// rs.Series aliases the live series — copy, as a durable
			// OnCheckpoint implementation would by encoding it.
			rs.Series = append(rs.Series[:0:0], rs.Series...)
			state = rs
		},
	})
	if snap == nil {
		t.Fatal("OnCheckpoint never fired at the target round")
	}

	resumed := snapshotEngine(mk, 42, 2)
	if err := resumed.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	gotRes := resumed.Run(sim.RunConfig{
		MaxRounds: maxRounds,
		Record:    true,
		OnRound:   plan().OnRound,
		Resume:    &state,
	})

	if gotRes.Rounds != wantRes.Rounds || gotRes.Converged != wantRes.Converged {
		t.Fatalf("resumed result (rounds=%d converged=%v), want (rounds=%d converged=%v)",
			gotRes.Rounds, gotRes.Converged, wantRes.Rounds, wantRes.Converged)
	}
	if len(gotRes.Series) != len(wantRes.Series) {
		t.Fatalf("resumed series has %d points, want %d", len(gotRes.Series), len(wantRes.Series))
	}
	for i := range wantRes.Series {
		if wantRes.Series[i] != gotRes.Series[i] {
			t.Fatalf("series point %d: %+v, want %+v", i, gotRes.Series[i], wantRes.Series[i])
		}
	}
}

// TestSnapshotErrors pins the failure modes: the legacy sequential
// engine has unserializable RNG state (ErrNotSharded), and a snapshot
// must only restore into an engine with the same topology size and
// detector presence.
func TestSnapshotErrors(t *testing.T) {
	g := topology.Ring(8)
	inputs := make([]float64, g.N())
	mk := func() gossip.Protocol { return core.NewEfficient() }

	legacy := sim.NewScalar(g, fuzzProtos(g.N(), mk), inputs, gossip.Average, 1)
	if _, err := legacy.Snapshot(); err == nil {
		t.Fatal("Snapshot on the legacy engine must fail")
	}
	if err := legacy.Restore(&sim.Snapshot{}); err == nil {
		t.Fatal("Restore on the legacy engine must fail")
	}

	sharded := sim.NewScalar(g, fuzzProtos(g.N(), mk), inputs, gossip.Average, 1, sim.WithShards(2))
	snap, err := sharded.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	other := sim.NewScalar(topology.Ring(10), fuzzProtos(10, mk), make([]float64, 10), gossip.Average, 1, sim.WithShards(2))
	if err := other.Restore(snap); err == nil {
		t.Fatal("Restore into a different-size engine must fail")
	}
	withDet := sim.NewScalar(g, fuzzProtos(g.N(), mk), inputs, gossip.Average, 1, sim.WithShards(2),
		sim.WithDetector(detect.Config{Timeout: 30}))
	if err := withDet.Restore(snap); err == nil {
		t.Fatal("Restore of a detector-less snapshot into a detector engine must fail")
	}
}

// TestResetClearsStagedEvents is the trial-to-trial leakage regression:
// after a run with fault and detector events, Reset plus a rerun on a
// fresh recorder must produce exactly the event stream a brand-new
// engine produces — nothing staged in the per-shard queues may survive
// the reset.
func TestResetClearsStagedEvents(t *testing.T) {
	mk := func() gossip.Protocol { return core.NewEfficient() }
	events := snapshotPlans()["silent-crash"]
	runWith := func(e *sim.Engine) []metrics.Event {
		rec := metrics.New(metrics.Config{Shards: 2, Interval: 10})
		e.SetMetrics(rec)
		e.Run(sim.RunConfig{MaxRounds: 120, OnRound: fault.NewPlan(events...).OnRound})
		return rec.Events()
	}

	reused := snapshotEngine(mk, 3, 2)
	runWith(reused)
	reused.Reset(3)
	got := runWith(reused)

	fresh := snapshotEngine(mk, 3, 2)
	want := runWith(fresh)

	if len(got) != len(want) {
		t.Fatalf("rerun after Reset recorded %d events, fresh engine %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("event %d after Reset: %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(want) == 0 {
		t.Fatal("scenario recorded no events — regression test inert")
	}
}

// TestCrashRestartRecovers drives the new crash-restart recovery on the
// round simulator: checkpoint the victim, crash it silently, restart it
// from the checkpoint, and require that it rejoins (alive, estimates
// again) and the network re-converges with the detector's suspicions of
// it cleared.
func TestCrashRestartRecovers(t *testing.T) {
	const victim = 5
	mk := func() gossip.Protocol { return core.NewRobust() }
	plan := fault.NewPlan(append(
		[]fault.Event{fault.NodeCheckpoint(30, victim)},
		fault.CrashRestart(60, 140, victim)...)...)
	e := snapshotEngine(mk, 17, 2)
	e.Run(sim.RunConfig{MaxRounds: 600, OnRound: plan.OnRound})

	if !e.Alive(victim) {
		t.Fatal("victim is still dead after RestartNode")
	}
	if st := e.DetectorStats(); st.Suspicions == 0 || st.Reintegrations == 0 {
		t.Fatalf("detector stats %+v: want suspicions and reintegrations from the crash-restart cycle", st)
	}
	g := e.Graph()
	for _, j32 := range g.Neighbors(victim) {
		if crossContains(e.Suspects(int(j32)), victim) {
			t.Fatalf("neighbor %d still suspects the restarted victim", j32)
		}
	}
	// Restarting from a stale snapshot loses the state mutated between
	// checkpoint and crash, so unlike detector reintegration a small
	// permanent bias against the oracle is expected (the comparison
	// experiments.RecoveryComparison quantifies it). What recovery must
	// deliver is tight internal consensus on a nearby value.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, est := range e.Estimates() {
		if !e.Alive(i) {
			continue
		}
		lo = math.Min(lo, est[0])
		hi = math.Max(hi, est[0])
	}
	if spread := hi - lo; spread > 1e-9 {
		t.Fatalf("survivors did not reach consensus after crash-restart: spread %.3e", spread)
	}
	if err := e.MaxError(); err > 1e-2 {
		t.Fatalf("post-restart bias too large: maxErr %.3e", err)
	}
}
