package runtime

import (
	"context"
	"math"
	"testing"
	"time"

	"pcfreduce/internal/core"
	"pcfreduce/internal/detect"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/topology"
)

// waitUntil polls cond every 500µs until it holds or the deadline
// expires.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// The acceptance scenario of the detection layer: a node on a 64-node
// hypercube crashes silently mid-run — no oracle, no notifications. Every
// neighbor must detect the silence, evict the dead node via the PCF
// recovery path, and the survivors must still converge tightly.
//
// The crashed node's initial value is the mean of the others, so the
// survivors' target equals the original aggregate; the residual oracle
// error is bounded by the dead node's estimate deviation at crash time
// scaled by 1/n (the absorb-semantics trade-off documented on
// core.OnLinkFailure), which the spread-converged survivors must respect.
func TestSilentCrashDetectedByNeighbors(t *testing.T) {
	g := topology.Hypercube(6)
	n := g.N()
	const crash = 21
	init := make([]gossip.Value, n)
	mean := 0.0
	for i := 0; i < n; i++ {
		if i != crash {
			v := 1 + 0.01*float64(i%9)
			init[i] = gossip.Scalar(v, 1)
			mean += v
		}
	}
	mean /= float64(n - 1)
	init[crash] = gossip.Scalar(mean, 1)

	net := mustNew(t, Config{
		Graph:       g,
		NewProtocol: func() gossip.Protocol { return core.NewEfficient() },
		Init:        init,
		Seed:        11,
		Detector:    &DetectorConfig{SuspicionTimeout: 10 * time.Millisecond},
	})
	done := make(chan RunResult, 1)
	go func() {
		// Stable 500 × 200µs monitor ticks puts a ~100ms floor on the run,
		// so convergence cannot outrun the suspicion timeout — the spread
		// criterion is met by survivors only after the eviction settles.
		res, err := net.Run(context.Background(), RunConfig{
			Eps: 1e-10, Timeout: 30 * time.Second, Stable: 500, OracleFree: true,
		})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	time.Sleep(3 * time.Millisecond)
	net.CrashNodeSilent(crash)
	net.CrashNodeSilent(crash) // idempotent
	res := <-done
	if !res.Converged {
		t.Fatalf("survivors did not converge after silent crash: spread %.3e", res.FinalMaxError)
	}
	for _, j32 := range g.Neighbors(crash) {
		j := int(j32)
		if !containsInt(net.Suspects(j), crash) {
			t.Errorf("neighbor %d does not suspect the silently crashed node (suspects %v)", j, net.Suspects(j))
		}
	}
	if stats := net.DetectorStats(); stats.Suspicions < g.Degree(crash) {
		t.Errorf("only %d suspicions recorded, want at least %d", stats.Suspicions, g.Degree(crash))
	}
	if math.IsNaN(net.Estimates()[crash][0]) == false {
		t.Error("crashed node must report NaN")
	}
	if err := net.MaxError(); err > 5e-2 {
		t.Errorf("survivors' estimate is %.3e away from the recomputed target", err)
	}
}

// A transient link outage: both endpoints silently lose the link, detect
// the silence, evict each other — and once the link heals, probes cross
// it, both sides reintegrate, and the run converges to the unchanged
// full-membership target with all edges in play.
func TestTransientOutageEvictsAndReintegrates(t *testing.T) {
	g := topology.Ring(16)
	net := mustNew(t, Config{
		Graph:       g,
		NewProtocol: func() gossip.Protocol { return core.NewEfficient() },
		Init:        scalarInit(g.N(), gossip.Average),
		Seed:        12,
		Detector:    &DetectorConfig{SuspicionTimeout: 10 * time.Millisecond},
	})
	net.SilenceLink(0, 1) // outage from the start
	done := make(chan RunResult, 1)
	go func() {
		res, err := net.Run(context.Background(), RunConfig{
			Eps: 1e-10, Timeout: 30 * time.Second, Stable: 5,
		})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	waitUntil(t, 10*time.Second, "mutual suspicion across the silenced link", func() bool {
		return containsInt(net.Suspects(0), 1) && containsInt(net.Suspects(1), 0)
	})
	net.RestoreLink(0, 1)
	waitUntil(t, 10*time.Second, "reintegration after the link healed", func() bool {
		return net.DetectorStats().Reintegrations >= 2
	})
	res := <-done
	if !res.Converged {
		t.Fatalf("did not converge after outage healed: %.3e", res.FinalMaxError)
	}
	// The oracle target never changed (no node died); convergence via the
	// MaxError criterion already proves the evict/reintegrate cycle
	// conserved mass. The suspicion must be fully cleared on both ends.
	if s := net.Suspects(0); len(s) != 0 {
		t.Errorf("node 0 still suspects %v after reintegration", s)
	}
	if s := net.Suspects(1); len(s) != 0 {
		t.Errorf("node 1 still suspects %v after reintegration", s)
	}
	if stats := net.DetectorStats(); stats.Suspicions < 2 || stats.Reintegrations < 2 || stats.Keepalives == 0 {
		t.Errorf("stats = %+v, want ≥2 suspicions, ≥2 reintegrations, >0 keepalives", stats)
	}
}

// A hung node (long GC pause, overloaded host): neighbors evict it while
// it is frozen, then reintegrate it when it resumes, and the full
// membership re-converges to the unchanged oracle target.
func TestHangResumeReintegrates(t *testing.T) {
	g := topology.Hypercube(4)
	const hung = 3
	net := mustNew(t, Config{
		Graph:       g,
		NewProtocol: func() gossip.Protocol { return core.NewEfficient() },
		Init:        scalarInit(g.N(), gossip.Average),
		Seed:        13,
		Detector:    &DetectorConfig{SuspicionTimeout: 10 * time.Millisecond},
	})
	net.HangNode(hung) // frozen from the start
	done := make(chan RunResult, 1)
	go func() {
		res, err := net.Run(context.Background(), RunConfig{
			Eps: 1e-10, Timeout: 30 * time.Second, Stable: 5,
		})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	waitUntil(t, 10*time.Second, "all neighbors to suspect the hung node", func() bool {
		for _, j := range g.Neighbors(hung) {
			if !containsInt(net.Suspects(int(j)), hung) {
				return false
			}
		}
		return true
	})
	net.ResumeNode(hung)
	res := <-done
	if !res.Converged {
		t.Fatalf("did not converge after the hung node resumed: %.3e", res.FinalMaxError)
	}
	if stats := net.DetectorStats(); stats.Reintegrations < g.Degree(hung) {
		t.Errorf("%d reintegrations, want at least %d (all neighbors heal the hung node)",
			stats.Reintegrations, g.Degree(hung))
	}
}

// The φ-accrual policy must work end to end in the runtime: silence from
// a silently crashed node drives φ over the threshold and the survivors
// converge without it.
func TestPhiAccrualPolicyInRuntime(t *testing.T) {
	// Large enough that convergence cannot outrun the mid-run crash, and
	// busy enough that neighbors have real inter-arrival samples (the φ
	// model proper, not just the bootstrap timeout) when silence begins.
	g := topology.Hypercube(6)
	const crash = 40
	net := mustNew(t, Config{
		Graph:       g,
		NewProtocol: func() gossip.Protocol { return core.NewEfficient() },
		Init:        scalarInit(g.N(), gossip.Average),
		Seed:        15,
		Detector: &DetectorConfig{
			Policy:           detect.PhiAccrual,
			SuspicionTimeout: 15 * time.Millisecond,
			PhiThreshold:     6,
		},
	})
	done := make(chan RunResult, 1)
	go func() {
		res, err := net.Run(context.Background(), RunConfig{
			Eps: 1e-10, Timeout: 30 * time.Second, Stable: 500, OracleFree: true,
		})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	time.Sleep(3 * time.Millisecond)
	net.CrashNodeSilent(crash)
	res := <-done
	if !res.Converged {
		t.Fatalf("survivors did not converge under φ-accrual: %.3e", res.FinalMaxError)
	}
	// Convergence is impossible while neighbors keep pushing mass into
	// the dead node's edges, so by now every neighbor must suspect it.
	for _, j := range g.Neighbors(crash) {
		if !containsInt(net.Suspects(int(j)), crash) {
			t.Errorf("neighbor %d does not suspect the crashed node under φ-accrual", j)
		}
	}
}

// Detector configuration errors must surface from New, not mid-run.
func TestDetectorConfigValidation(t *testing.T) {
	g := topology.Ring(4)
	mk := func() gossip.Protocol { return core.NewEfficient() }
	for name, dc := range map[string]*DetectorConfig{
		"negative timeout": {SuspicionTimeout: -time.Second},
		"unknown policy":   {Policy: detect.Policy(9)},
		// The keepalive interval is SuspicionTimeout/5, zero here.
		"timeout too short for a keepalive": {SuspicionTimeout: time.Nanosecond},
	} {
		_, err := New(Config{Graph: g, NewProtocol: mk, Init: scalarInit(4, gossip.Average), Detector: dc})
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := New(Config{Graph: g, NewProtocol: mk, Init: scalarInit(4, gossip.Average), Detector: &DetectorConfig{}}); err != nil {
		t.Errorf("default detector config rejected: %v", err)
	}
}

func containsInt(list []int, x int) bool {
	for _, v := range list {
		if v == x {
			return true
		}
	}
	return false
}

// The Network implements fault.Runner, so one fault.Plan can drive both
// the round simulator (Plan.OnRound) and a live concurrent run
// (Plan.RunOn) — here a silent node crash plus a transient link outage
// replayed on a wall-clock tick.
var _ fault.Runner = (*Network)(nil)

func TestFaultPlanDrivesNetwork(t *testing.T) {
	g := topology.Hypercube(4)
	const crash = 5
	net := mustNew(t, Config{
		Graph:       g,
		NewProtocol: func() gossip.Protocol { return core.NewEfficient() },
		Init:        scalarInit(g.N(), gossip.Average),
		Seed:        16,
		Detector:    &DetectorConfig{SuspicionTimeout: 10 * time.Millisecond},
	})
	plan := fault.NewPlan(fault.SilentNodeCrash(3, crash)).
		Add(fault.LinkOutage(0, 30, 8, 9)...)
	ctx := context.Background()
	planDone := make(chan error, 1)
	go func() { planDone <- plan.RunOn(ctx, net, time.Millisecond) }()
	res, err := net.Run(ctx, RunConfig{
		Eps: 1e-10, Timeout: 30 * time.Second, Stable: 500, OracleFree: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-planDone; err != nil {
		t.Fatalf("plan replay failed: %v", err)
	}
	if !res.Converged {
		t.Fatalf("survivors did not converge under the fault plan: %.3e", res.FinalMaxError)
	}
	for _, j := range g.Neighbors(crash) {
		if !containsInt(net.Suspects(int(j)), crash) {
			t.Errorf("neighbor %d does not suspect the plan-crashed node", j)
		}
	}
	if stats := net.DetectorStats(); stats.Reintegrations < 2 {
		t.Errorf("%d reintegrations, want ≥ 2 (the outage healed mid-run)", stats.Reintegrations)
	}
}
