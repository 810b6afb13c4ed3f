package runtime

import (
	"context"
	"math"
	"testing"
	"time"

	"pcfreduce/internal/core"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/pushsum"
	"pcfreduce/internal/topology"
)

func scalarInit(n int, agg gossip.Aggregate) []gossip.Value {
	init := make([]gossip.Value, n)
	for i := range init {
		init[i] = gossip.Scalar(float64(i%9)+0.5, agg.InitialWeight(i))
	}
	return init
}

func mustNew(t *testing.T, cfg Config) *Network {
	t.Helper()
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func mustRun(t *testing.T, net *Network, cfg RunConfig) RunResult {
	t.Helper()
	res, err := net.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConvergesConcurrently(t *testing.T) {
	mks := map[string]func() gossip.Protocol{
		"pushsum":    func() gossip.Protocol { return pushsum.New() },
		"pushflow":   func() gossip.Protocol { return pushflow.New() },
		"pcf":        func() gossip.Protocol { return core.NewEfficient() },
		"pcf-robust": func() gossip.Protocol { return core.NewRobust() },
	}
	g := topology.Hypercube(5)
	for name, mk := range mks {
		net := mustNew(t, Config{Graph: g, NewProtocol: mk, Init: scalarInit(g.N(), gossip.Average), Seed: 1})
		res := mustRun(t, net, RunConfig{Eps: 1e-9, Timeout: 10 * time.Second, Stable: 3})
		if !res.Converged {
			t.Errorf("%s: not converged (err %.3e, %d sends)", name, res.FinalMaxError, res.TotalSends)
		}
	}
}

func TestTargetsOracle(t *testing.T) {
	g := topology.Ring(4)
	init := []gossip.Value{
		gossip.Scalar(1, 1), gossip.Scalar(2, 1), gossip.Scalar(3, 1), gossip.Scalar(10, 1),
	}
	net := mustNew(t, Config{Graph: g, NewProtocol: func() gossip.Protocol { return core.NewEfficient() }, Init: init, Seed: 1})
	if got := net.Targets()[0]; got != 4 {
		t.Fatalf("target = %g, want 4", got)
	}
}

func TestLinkFailureDuringRun(t *testing.T) {
	g := topology.Hypercube(4)
	net := mustNew(t, Config{
		Graph:       g,
		NewProtocol: func() gossip.Protocol { return core.NewEfficient() },
		Init:        scalarInit(g.N(), gossip.Average),
		Seed:        2,
	})
	done := make(chan RunResult, 1)
	go func() {
		res, err := net.Run(context.Background(), RunConfig{Eps: 1e-9, Timeout: 10 * time.Second, Stable: 5})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	time.Sleep(3 * time.Millisecond)
	net.FailLink(0, 1)
	net.FailLink(0, 1) // idempotent
	res := <-done
	if !res.Converged {
		t.Fatalf("did not converge after link failure: %.3e", res.FinalMaxError)
	}
}

func TestTinyInboxBackpressure(t *testing.T) {
	g := topology.Complete(8)
	net := mustNew(t, Config{
		Graph:         g,
		NewProtocol:   func() gossip.Protocol { return core.NewEfficient() },
		Init:          scalarInit(8, gossip.Average),
		Seed:          4,
		InboxCapacity: 2, // heavy back-pressure loss
	})
	res := mustRun(t, net, RunConfig{Eps: 1e-8, Timeout: 10 * time.Second, Stable: 3})
	if !res.Converged {
		t.Fatalf("did not converge under back-pressure: %.3e", res.FinalMaxError)
	}
}

func TestConfigValidation(t *testing.T) {
	g := topology.Ring(4)
	mk := func() gossip.Protocol { return core.NewEfficient() }
	if _, err := New(Config{NewProtocol: mk, Init: scalarInit(4, gossip.Average)}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := New(Config{Graph: g, NewProtocol: mk, Init: scalarInit(3, gossip.Average)}); err == nil {
		t.Fatal("wrong init length accepted")
	}
	if _, err := New(Config{Graph: g, Init: scalarInit(4, gossip.Average)}); err == nil {
		t.Fatal("nil protocol constructor accepted")
	}
}

func TestRunConfigValidation(t *testing.T) {
	g := topology.Ring(4)
	net := mustNew(t, Config{Graph: g, NewProtocol: func() gossip.Protocol { return core.NewEfficient() }, Init: scalarInit(4, gossip.Average)})
	for _, cfg := range []RunConfig{
		{Timeout: time.Second}, // no eps
		{Eps: 1e-9},            // no timeout
	} {
		if _, err := net.Run(context.Background(), cfg); err == nil {
			t.Fatalf("invalid %+v accepted", cfg)
		}
	}
}

func TestEstimatesSnapshot(t *testing.T) {
	g := topology.Ring(4)
	net := mustNew(t, Config{Graph: g, NewProtocol: func() gossip.Protocol { return core.NewEfficient() }, Init: scalarInit(4, gossip.Average)})
	ests := net.Estimates()
	if len(ests) != 4 {
		t.Fatalf("%d estimates", len(ests))
	}
	for i, est := range ests {
		if len(est) != 1 || math.IsNaN(est[0]) {
			t.Fatalf("node %d estimate %v before run", i, est)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	g := topology.Hypercube(6)
	net := mustNew(t, Config{Graph: g, NewProtocol: func() gossip.Protocol { return core.NewEfficient() }, Init: scalarInit(64, gossip.Average)})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := net.Run(ctx, RunConfig{Eps: 1e-300, Timeout: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not stop the run promptly")
	}
}

// A node crash mid-run: the survivors converge to their aggregate (the
// crash happens before mass spreads, so the dead node takes only its own
// input).
func TestCrashNodeDuringRun(t *testing.T) {
	g := topology.Hypercube(4)
	net := mustNew(t, Config{
		Graph:       g,
		NewProtocol: func() gossip.Protocol { return core.NewEfficient() },
		Init:        scalarInit(g.N(), gossip.Average),
		Seed:        8,
	})
	net.CrashNode(5) // crash before the run starts: no mass has spread
	net.CrashNode(5) // idempotent
	res := mustRun(t, net, RunConfig{Eps: 1e-9, Timeout: 10 * time.Second, Stable: 3})
	if !res.Converged {
		t.Fatalf("survivors did not converge: %.3e", res.FinalMaxError)
	}
	ests := net.Estimates()
	if !math.IsNaN(ests[5][0]) {
		t.Fatal("crashed node must report NaN")
	}
	// Oracle matches the survivors' aggregate.
	var want float64
	for i := 0; i < g.N(); i++ {
		if i != 5 {
			want += float64(i%9) + 0.5
		}
	}
	want /= float64(g.N() - 1)
	if got := net.Targets()[0]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("targets = %.15g, want %.15g", got, want)
	}
}

// Satellite coverage for the back-pressure path: a one-slot inbox and
// pacing cut to a tenth of the default make senders outrun receivers, so
// sends get dropped on full inboxes (asserted via Drops). Flow-based
// protocols converge regardless (per-edge flow state is retransmitted
// wholesale, so a drop only delays the exchange), while push-sum
// physically loses the mass carried by every dropped message and cannot
// reach a tight oracle target. (Pacing stays well above zero: a fully
// unpaced flooding node halves its local mass into unacknowledged flow
// deltas faster than deliveries restore it and every snapshot reads
// 0/0 — the regime documented on Config.SendPacing, and not what this
// test is about.)
func TestBackpressureDropsBiasPushSumNotFlows(t *testing.T) {
	g := topology.Complete(8)
	for name, mk := range map[string]func() gossip.Protocol{
		"pcf": func() gossip.Protocol { return core.NewEfficient() },
		"pf":  func() gossip.Protocol { return pushflow.New() },
	} {
		net := mustNew(t, Config{
			Graph:         g,
			NewProtocol:   mk,
			Init:          scalarInit(8, gossip.Average),
			Seed:          21,
			InboxCapacity: 1,
			SendPacing:    5 * time.Microsecond,
		})
		res := mustRun(t, net, RunConfig{Eps: 1e-8, Timeout: 10 * time.Second, Stable: 3})
		if !res.Converged {
			t.Errorf("%s did not converge under back-pressure drops: %.3e", name, res.FinalMaxError)
		}
		if net.Drops() == 0 {
			t.Errorf("%s: no inbox-full drops recorded — the test exercised nothing", name)
		}
	}
	net := mustNew(t, Config{
		Graph:         g,
		NewProtocol:   func() gossip.Protocol { return pushsum.New() },
		Init:          scalarInit(8, gossip.Average),
		Seed:          21,
		InboxCapacity: 1,
		SendPacing:    5 * time.Microsecond,
	})
	res := mustRun(t, net, RunConfig{Eps: 1e-11, Timeout: time.Second, Stable: 3})
	if res.Converged {
		t.Fatal("push-sum met a 1e-11 oracle target despite sustained inbox-full mass loss — impossible")
	}
	if net.Drops() == 0 {
		t.Fatal("push-sum run recorded no inbox-full drops")
	}
}
