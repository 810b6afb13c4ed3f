package experiments

import (
	"math"
	"testing"

	"pcfreduce/internal/detect"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/topology"
)

func TestAlgorithmByName(t *testing.T) {
	for name, want := range map[string]string{
		"pushsum": "push-sum", "ps": "push-sum",
		"pf": "PF", "pushflow": "PF",
		"pcf":        "PCF",
		"pcf-robust": "PCF-robust",
		"fu":         "flow-updating",
	} {
		algo, err := AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if algo.Name != want {
			t.Fatalf("%q → %q, want %q", name, algo.Name, want)
		}
	}
	if _, err := AlgorithmByName("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestUniformInputsDeterministic(t *testing.T) {
	a := UniformInputs(10, 3)
	b := UniformInputs(10, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
		if a[i] < 0 || a[i] >= 1 {
			t.Fatal("out of range")
		}
	}
}

func TestTopologyKinds(t *testing.T) {
	if Torus3D.String() != "3D Torus" || HypercubeTopo.String() != "Hypercube" {
		t.Fatal("names")
	}
	for i := 1; i <= 3; i++ {
		want := 1 << uint(3*i)
		if g := Torus3D.Build(i); g.N() != want {
			t.Fatalf("torus i=%d: %d nodes", i, g.N())
		}
		if g := HypercubeTopo.Build(i); g.N() != want {
			t.Fatalf("hypercube i=%d: %d nodes", i, g.N())
		}
	}
}

// Fig. 2: the bus worked example reproduces the analytic flow invariant.
func TestBusExample(t *testing.T) {
	res, err := BusExample(PushFlow, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, est := range res.Estimates {
		if math.Abs(est-2) > 1e-12 {
			t.Fatalf("node %d estimate %.15g, want 2", i, est)
		}
	}
	for i, inv := range res.FlowInvariant {
		if math.Abs(inv-ExpectedForwardFlow(8, i)) > 1e-9 {
			t.Fatalf("edge %d invariant %.12g, want %g", i, inv, ExpectedForwardFlow(8, i))
		}
	}
	// PCF: same estimates, near-zero invariant (flows cancelled).
	pcf, err := BusExample(PCF, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, inv := range pcf.FlowInvariant {
		if math.Abs(inv) > 1e-9 {
			t.Fatalf("PCF edge %d invariant %.3e, want ≈ 0", i, inv)
		}
	}
	// Push-sum has no flows.
	if _, err := BusExample(PushSum, 8, 3); err == nil {
		t.Fatal("push-sum must report missing flows")
	}
}

// Figs. 3/6 (one cell each): PF misses the 1e-15 target at 64 nodes,
// PCF reaches it.
func TestAccuracySinglePoint(t *testing.T) {
	pf := AccuracySingle(PushFlow, HypercubeTopo, gossip.Average, 2, 1)
	pcf := AccuracySingle(PCF, HypercubeTopo, gossip.Average, 2, 1)
	if pf.Nodes != 64 || pcf.Nodes != 64 {
		t.Fatalf("nodes %d/%d", pf.Nodes, pcf.Nodes)
	}
	if pcf.FloorMaxErr >= pf.FloorMaxErr {
		t.Fatalf("PCF floor %.3e not better than PF %.3e", pcf.FloorMaxErr, pf.FloorMaxErr)
	}
	if !pcf.ReachedTarget {
		t.Fatalf("PCF misses 1e-15 at 64 nodes: %.3e", pcf.FloorMaxErr)
	}
}

// Figs. 4/7: PF falls back by orders of magnitude at the failure, PCF
// does not fall back at all.
func TestFailureHarness(t *testing.T) {
	pf := Failure(DefaultFailureConfig(PushFlow, 175))
	pcf := Failure(DefaultFailureConfig(PCF, 175))
	if pf.Fallback < 1e3 {
		t.Fatalf("PF fall-back factor %.3g, want ≫ 1", pf.Fallback)
	}
	if pcf.Fallback > 10 {
		t.Fatalf("PCF fall-back factor %.3g, want ≈ 1", pcf.Fallback)
	}
	if len(pf.Series) != 200 || len(pcf.Series) != 200 {
		t.Fatal("series length")
	}
	// Identical schedules: before the failure the two runs agree up to
	// floating-point rounding order (the paper's same-seed comparison —
	// "we see no difference between the two algorithms until the first
	// failure occurs").
	// The estimates differ only by accumulated rounding-order effects,
	// i.e. absolute deviations near machine precision; so must the
	// per-iteration error curves.
	for i := 0; i < 174; i++ {
		a, b := pf.Series[i].Max, pcf.Series[i].Max
		if math.Abs(a-b) > 1e-10 {
			t.Fatalf("pre-failure traces diverge at iteration %d: %.3e vs %.3e", i+1, a, b)
		}
	}
	// After the failure PCF is strictly more accurate.
	if pcf.ErrFinal >= pf.ErrFinal {
		t.Fatalf("final: PCF %.3e vs PF %.3e", pcf.ErrFinal, pf.ErrFinal)
	}
}

func TestNodeCrashHarness(t *testing.T) {
	// PCF after a well-mixed crash: survivors agree tightly on a value
	// near the ORIGINAL aggregate (the dead node took only its fair
	// share of mass), while the offset to the survivors'-initial-data
	// aggregate is first-order (≈ |v_dead − avg|/n).
	pcf := NodeCrash(PCF, 5, 100, 400, 7, 3)
	if len(pcf.Series) != 400 {
		t.Fatal("series length")
	}
	if pcf.ErrFinalVsOriginal > 1e-8 {
		t.Fatalf("PCF error vs original aggregate %.3e", pcf.ErrFinalVsOriginal)
	}
	if pcf.Spread > 1e-10 {
		t.Fatalf("PCF survivors disagree by %.3e", pcf.Spread)
	}
	// PF reclaims complete transfer histories, so it re-converges to
	// the survivors' aggregate instead.
	pf := NodeCrash(PushFlow, 5, 100, 2000, 7, 3)
	if pf.ErrFinalVsSurvivors > 1e-10 {
		t.Fatalf("PF error vs survivors' aggregate %.3e", pf.ErrFinalVsSurvivors)
	}
}

// EXP-A: only push-sum is permanently biased by a single lost message.
func TestSingleLoss(t *testing.T) {
	ps := SingleLoss(PushSum, 5, 20, 2)
	pcf := SingleLoss(PCF, 5, 20, 2)
	if ps.FloorMaxErr < 1e-9 {
		t.Fatalf("push-sum floor %.3e — should be permanently biased", ps.FloorMaxErr)
	}
	if pcf.FloorMaxErr > 1e-12 {
		t.Fatalf("PCF floor %.3e — should heal", pcf.FloorMaxErr)
	}
}

// EXP-C: exact equivalence on dyadic inputs over a short horizon.
func TestEquivalenceExact(t *testing.T) {
	res := Equivalence(5, 15, 4, true, 1e-12)
	if res.MaxDivergence != 0 {
		t.Fatalf("dyadic divergence %.3e, want exactly 0", res.MaxDivergence)
	}
	long := Equivalence(5, 300, 4, false, 1e-12)
	if long.MaxDivergence > 1e-10 {
		t.Fatalf("long-run divergence %.3e", long.MaxDivergence)
	}
	if long.RoundsPF != long.RoundsPCF {
		t.Fatalf("failure-free rounds differ: PF %d, PCF %d", long.RoundsPF, long.RoundsPCF)
	}
}

// EXP-B: gossip rounds grow roughly linearly in log n (the O(log n)
// scaling shape).
func TestScalingShape(t *testing.T) {
	pts := Scaling([]Algorithm{PCF}, 3, 7, 1e-9, 1)
	if len(pts) != 5 {
		t.Fatal("points")
	}
	for _, p := range pts {
		r := p.RoundsToEps["PCF"]
		if r <= 0 {
			t.Fatalf("n=%d did not converge", p.Nodes)
		}
		// Rounds should be within a generous constant of log2(n).
		if r > 60*p.ParallelSteps {
			t.Fatalf("n=%d took %d rounds for %d parallel steps", p.Nodes, r, p.ParallelSteps)
		}
	}
	// Monotone-ish growth with n.
	if pts[4].RoundsToEps["PCF"] < pts[0].RoundsToEps["PCF"] {
		t.Fatal("rounds shrank with n")
	}
}

// EXP-G: the fragility comparison.
func TestFragility(t *testing.T) {
	res := Fragility(8, 1)
	if len(res) != 3 {
		t.Fatal("methods")
	}
	byName := map[string]FragilityResult{}
	for _, r := range res {
		byName[r.Method] = r
	}
	if byName["recursive-doubling"].WrongNodes == 0 {
		t.Fatal("recursive doubling should have wrong nodes")
	}
	if byName["binomial-tree"].WrongNodes != 256 {
		t.Fatalf("tree wrong nodes %d, want all", byName["binomial-tree"].WrongNodes)
	}
	if byName["gossip-PCF"].WrongNodes != 0 {
		t.Fatalf("gossip wrong nodes %d, want 0", byName["gossip-PCF"].WrongNodes)
	}
}

// EXP-D (single cell): PF converges under loss, push-sum does not.
func TestLossSweepCell(t *testing.T) {
	pts := LossSweep([]Algorithm{PushSum, PCF}, []float64{0.1}, 5, 1e-11, 3000, 5)
	if len(pts) != 2 {
		t.Fatal("points")
	}
	if pts[0].RoundsToEps != -1 {
		t.Fatal("push-sum converged under loss")
	}
	if pts[1].RoundsToEps <= 0 {
		t.Fatalf("PCF did not converge under loss: %+v", pts[1])
	}
}

// EXP-E (bounded): PCF recovers from a mantissa bit-flip storm.
func TestBitFlipsRecovery(t *testing.T) {
	res := BitFlips(PCF, 5, 0.02, 60, 400, 1e-11, true, 3)
	if res.Flips == 0 {
		t.Fatal("no flips injected")
	}
	if res.RecoveryRounds < 0 {
		t.Fatalf("PCF did not recover from bounded flips: floor %.3e", res.FloorMaxErr)
	}
	ps := BitFlips(PushSum, 5, 0.02, 60, 400, 1e-11, true, 3)
	if ps.RecoveryRounds >= 0 {
		t.Fatal("push-sum recovered from bit flips — impossible")
	}
}

// Fig. 8 (one small cell): dmGS works through the harness and PCF is at
// least as accurate as PF.
func TestQRSingleCell(t *testing.T) {
	cfgPF := DefaultQRConfig(PushFlow, 2)
	cfgPCF := DefaultQRConfig(PCF, 2)
	pf, err := QRSingle(cfgPF, 5)
	if err != nil {
		t.Fatal(err)
	}
	pcf, err := QRSingle(cfgPCF, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Nodes != 32 || pcf.Nodes != 32 {
		t.Fatal("nodes")
	}
	if pcf.FactErrMean > 1e-12 {
		t.Fatalf("dmGS(PCF) error %.3e", pcf.FactErrMean)
	}
	if pf.FactErrMean < pcf.FactErrMean/10 {
		t.Fatalf("unexpected ordering: PF %.3e, PCF %.3e", pf.FactErrMean, pcf.FactErrMean)
	}
}

func TestQRConfigValidation(t *testing.T) {
	cfg := DefaultQRConfig(PCF, 0) // zero runs
	if _, err := QRSingle(cfg, 5); err == nil {
		t.Fatal("zero runs accepted")
	}
}

// EXP-J: live monitoring under loss — flow algorithms track the moving
// aggregate with bounded lag; push-sum diverges (weight mass evaporates).
func TestMonitoring(t *testing.T) {
	pcf := Monitoring(PCF, 5, 600, 10, 0.05, 2)
	if pcf.TrackingErrMedian > 0.2 {
		t.Fatalf("PCF median tracking error %.3e", pcf.TrackingErrMedian)
	}
	ps := Monitoring(PushSum, 5, 600, 10, 0.05, 2)
	if ps.TrackingErrMedian < 10*pcf.TrackingErrMedian {
		t.Fatalf("push-sum should drift: %.3e vs PCF %.3e",
			ps.TrackingErrMedian, pcf.TrackingErrMedian)
	}
	// Without updates and loss, the harness degenerates to a plain
	// reduction that converges fully.
	still := Monitoring(PCF, 5, 600, 0, 0, 2)
	if still.TrackingErrMedian > 1e-12 {
		t.Fatalf("static monitoring did not converge: %.3e", still.TrackingErrMedian)
	}
}

// EXP-K: the accuracy floor's data dependence (Sec. II-B) — constant
// data is exact for PF, signed (cancelling) data is its worst case, and
// PCF beats PF on every distribution at this size.
func TestDataDistSweep(t *testing.T) {
	algos := []Algorithm{PushFlow, PCF}
	dists := []DataDist{DistConstant, DistUniform, DistSigned}
	pts := DataDistSweep(algos, dists, 6, 1)
	if len(pts) != 6 {
		t.Fatalf("%d points", len(pts))
	}
	get := func(algo, dist string) float64 {
		for _, p := range pts {
			if p.Algorithm == algo && p.Distribution == dist {
				return p.FloorMaxErr
			}
		}
		t.Fatalf("missing %s/%s", algo, dist)
		return 0
	}
	if get("PF", "constant") > 1e-15 {
		t.Fatalf("PF on constant data should be near-exact: %.3e", get("PF", "constant"))
	}
	if get("PF", "uniform[0,1)") <= get("PF", "constant") {
		t.Fatal("PF floor should depend on the data distribution")
	}
	for _, dist := range []string{"uniform[0,1)", "uniform[-1,1)"} {
		if get("PCF", dist) >= get("PF", dist) {
			t.Fatalf("PCF (%.3e) not better than PF (%.3e) on %s",
				get("PCF", dist), get("PF", dist), dist)
		}
	}
}

func TestDataDistDraw(t *testing.T) {
	for _, d := range []DataDist{DistUniform, DistConstant, DistLinear, DistLogNormal, DistSigned} {
		xs := d.Draw(100, 4)
		if len(xs) != 100 {
			t.Fatalf("%v: %d values", d, len(xs))
		}
		ys := d.Draw(100, 4)
		for i := range xs {
			if xs[i] != ys[i] {
				t.Fatalf("%v not deterministic", d)
			}
		}
	}
	if DistConstant.Draw(5, 1)[0] != DistConstant.Draw(5, 2)[4] {
		t.Fatal("constant distribution must not vary")
	}
}

// EXP-I sanity: detection latency grows with the fixed timeout and is
// never below it (a neighbor cannot be suspected before Timeout rounds
// of silence); no neighbor misses the crash at sane settings; the
// φ-accrual policy orders the same way with its threshold.
func TestDetectionTradeoff(t *testing.T) {
	g := topology.Hypercube(4)
	fixed, err := DetectionTradeoff(DetectionConfig{
		Graph:         g,
		Params:        []float64{10, 60},
		CrashRound:    60,
		ObserveRounds: 400,
		Trials:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range fixed {
		if pt.Missed != 0 {
			t.Errorf("timeout %.0f: %d trials missed the crash", pt.Param, pt.Missed)
		}
		if pt.MeanLatency < pt.Param {
			t.Errorf("timeout %.0f: mean latency %.1f rounds is below the timeout", pt.Param, pt.MeanLatency)
		}
	}
	if fixed[0].MeanLatency >= fixed[1].MeanLatency {
		t.Errorf("latency not increasing in timeout: %.1f (t=10) vs %.1f (t=60)",
			fixed[0].MeanLatency, fixed[1].MeanLatency)
	}

	phi, err := DetectionTradeoff(DetectionConfig{
		Graph:         g,
		Policy:        detect.PhiAccrual,
		Params:        []float64{2, 8},
		CrashRound:    200, // past the warm-up: the φ model is active
		ObserveRounds: 400,
		Trials:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range phi {
		if pt.Missed != 0 {
			t.Errorf("φ=%.0f: %d trials missed the crash", pt.Param, pt.Missed)
		}
	}
	if phi[0].MeanLatency > phi[1].MeanLatency {
		t.Errorf("latency not monotone in φ threshold: %.1f (φ=2) vs %.1f (φ=8)",
			phi[0].MeanLatency, phi[1].MeanLatency)
	}
}

func TestDetectionTradeoffValidates(t *testing.T) {
	if _, err := DetectionTradeoff(DetectionConfig{Params: []float64{10}}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := DetectionTradeoff(DetectionConfig{Graph: topology.Ring(8)}); err == nil {
		t.Error("empty parameter sweep accepted")
	}
}
