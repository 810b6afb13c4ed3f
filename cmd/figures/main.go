// Command figures regenerates the data behind every figure of the
// paper's evaluation (Figs. 2, 3, 4, 6, 7, 8) and the ablation
// experiments documented in DESIGN.md (EXP-A … EXP-K).
//
// Usage:
//
//	figures -fig 3            # one figure (2,3,4,6,7,8)
//	figures -exp D            # one ablation (A,B,C,D,E,G)
//	figures -all              # everything
//	figures -fig 3 -scale 4   # cap the size sweep at 2^(3*4) nodes
//	figures -fig 8 -runs 10   # fewer QR repetitions than the paper's 50
//	figures -csv              # CSV instead of aligned tables
//
// Paper-scale settings (-scale 5, -runs 50) match the publication but
// take substantially longer; the defaults produce the same qualitative
// shapes in seconds to minutes.
package main

import (
	"flag"
	"fmt"
	"os"

	"pcfreduce/internal/experiments"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/profiling"
	"pcfreduce/internal/trace"
)

func main() {
	var (
		fig   = flag.Int("fig", 0, "figure to regenerate (2,3,4,6,7,8); 0 = none")
		exp   = flag.String("exp", "", "ablation experiment (A,B,C,D,E,G,H,I,J,K)")
		all   = flag.Bool("all", false, "regenerate every figure and ablation")
		scale = flag.Int("scale", 4, "max size index i for Figs. 3/6 (n = 2^(3i); paper: 5)")
		runs  = flag.Int("runs", 10, "QR repetitions per size for Fig. 8 (paper: 50)")
		qrDim = flag.Int("qrdim", 8, "max hypercube dimension for Fig. 8 (paper: 10)")
		seed  = flag.Int64("seed", 1, "base random seed")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned tables")

		phaseReport   = flag.Bool("phase-report", false, "run short timing-enabled sharded reductions and print the per-shard phase breakdown: partition-predicted vs measured delivery share, barrier waits and pool utilization")
		checkTimeline = flag.String("check-timeline", "", "structurally validate a gossipsim -timeline JSON export (named tracks, phase slices, fault/churn instants) and exit non-zero on problems")

		shards     = flag.Int("shards", 8, "shard count for the -phase-report runs")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		metricsEvery = flag.Int("metrics", 0, "for the failure figures (4, 7): sample the invariant probes every K iterations and print each run's metrics table (0 = off)")
		eventsOut    = flag.String("events", "", `for the failure figures (4, 7): write each run's trace events as JSONL to this file ("-" = stdout)`)
	)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	emit := func(t *trace.Table) {
		if *csv {
			if err := t.WriteCSV(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
			return
		}
		if _, err := t.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	ran := false
	runFig := func(n int) bool { return *all || *fig == n }
	runExp := func(s string) bool { return *all || *exp == s }

	if runFig(2) {
		figure2(emit, *seed)
		ran = true
	}
	if runFig(3) {
		accuracyFigure(emit, "Figure 3 — PF accuracy floor vs system size", experiments.PushFlow, *scale, *seed)
		ran = true
	}
	if runFig(4) {
		failureFigure(emit, "Figure 4 — PF, single permanent link failure", experiments.PushFlow, *seed, *metricsEvery, *eventsOut)
		ran = true
	}
	if runFig(6) {
		accuracyFigure(emit, "Figure 6 — PCF accuracy floor vs system size", experiments.PCF, *scale, *seed)
		ran = true
	}
	if runFig(7) {
		failureFigure(emit, "Figure 7 — PCF, single permanent link failure", experiments.PCF, *seed, *metricsEvery, *eventsOut)
		ran = true
	}
	if runFig(8) {
		figure8(emit, *qrDim, *runs, *seed)
		ran = true
	}
	if runExp("A") {
		expA(emit, *seed)
		ran = true
	}
	if runExp("B") {
		expB(emit, *seed)
		ran = true
	}
	if runExp("C") {
		expC(emit, *seed)
		ran = true
	}
	if runExp("D") {
		expD(emit, *seed)
		ran = true
	}
	if runExp("E") {
		expE(emit, *seed)
		ran = true
	}
	if runExp("G") {
		expG(emit, *seed)
		ran = true
	}
	if runExp("H") {
		expH(emit, *seed)
		ran = true
	}
	if runExp("I") {
		expI(emit, *seed)
		ran = true
	}
	if runExp("J") {
		expJ(emit, *seed)
		ran = true
	}
	if runExp("K") {
		expK(emit, *seed)
		ran = true
	}
	if *phaseReport {
		runPhaseReport(emit, *seed, *shards)
		ran = true
	}
	if *checkTimeline != "" {
		runCheckTimeline(*checkTimeline)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}

func figure2(emit func(*trace.Table), seed int64) {
	const n = 8
	res, err := experiments.BusExample(experiments.PushFlow, n, seed)
	if err != nil {
		fatal(err)
	}
	t := trace.NewTable(
		fmt.Sprintf("Figure 2 — bus network worked example (PF, n=%d, v1=n+1, vi=1): converged in %d rounds", n, res.Rounds),
		"node", "estimate (→2)", "flow fx(i,i+1)", "fx−2fw invariant", "analytic n−i−1")
	for i := 0; i < n; i++ {
		flow, inv, analytic := "", "", ""
		if i < n-1 {
			flow = trace.FormatFloat(res.ForwardFlowValue[i])
			inv = trace.FormatFloat(res.FlowInvariant[i])
			analytic = trace.FormatFloat(experiments.ExpectedForwardFlow(n, i))
		}
		t.AddRow(i, res.Estimates[i], flow, inv, analytic)
	}
	emit(t)
	// The PCF counterpart: same estimates, but the raw flows stay near
	// zero because they are periodically cancelled — the property that
	// makes failure handling cheap.
	resPCF, err := experiments.BusExample(experiments.PCF, n, seed)
	if err != nil {
		fatal(err)
	}
	t2 := trace.NewTable("Figure 2 (PCF counterpart) — flows converge toward 0, estimates identical",
		"node", "estimate (→2)", "flow fx(i,i+1)", "fx−2fw invariant")
	for i := 0; i < n; i++ {
		flow, inv := "", ""
		if i < n-1 {
			flow = trace.FormatFloat(resPCF.ForwardFlowValue[i])
			inv = trace.FormatFloat(resPCF.FlowInvariant[i])
		}
		t2.AddRow(i, resPCF.Estimates[i], flow, inv)
	}
	emit(t2)
}

func accuracyFigure(emit func(*trace.Table), title string, algo experiments.Algorithm, scale int, seed int64) {
	cfg := experiments.DefaultAccuracyConfig(algo, scale)
	cfg.Seed = seed
	points := experiments.Accuracy(cfg)
	t := trace.NewTable(title+" (series as plotted: topology × aggregate)",
		"topology", "aggregate", "nodes", "max local error floor", "rounds", "reaches 1e-15")
	for _, p := range points {
		t.AddRow(p.Topology, p.Aggregate, p.Nodes, p.FloorMaxErr, p.Rounds, p.ReachedTarget)
	}
	emit(t)
}

func failureFigure(emit func(*trace.Table), title string, algo experiments.Algorithm, seed int64, metricsEvery int, eventsPath string) {
	for _, failAt := range []int{75, 175} {
		cfg := experiments.DefaultFailureConfig(algo, failAt)
		cfg.Seed = seed
		if metricsEvery > 0 || eventsPath != "" {
			cfg.Metrics = metrics.New(metrics.Config{Interval: max(1, metricsEvery)})
		}
		res := experiments.Failure(cfg)
		t := trace.NewTable(
			fmt.Sprintf("%s at iteration %d (6D hypercube, 200 iterations; fall-back factor %.3g)",
				title, failAt, res.Fallback),
			"iteration", "max local error", "median local error")
		for _, p := range res.Series {
			if p.Iteration%5 == 0 || (p.Iteration >= failAt-2 && p.Iteration <= failAt+3) {
				t.AddRow(p.Iteration, p.Max, p.Median)
			}
		}
		emit(t)
		if cfg.Metrics != nil {
			if metricsEvery > 0 {
				emit(cfg.Metrics.Table())
			}
			if eventsPath != "" {
				writeEventsJSONL(cfg.Metrics, eventsPath)
			}
		}
	}
}

// writeEventsJSONL appends one run's trace events to the given path
// ("-" = stdout). The failure figures run twice (failAt 75 and 175), so
// the file accumulates both traces in run order.
func writeEventsJSONL(rec *metrics.Recorder, path string) {
	w := os.Stdout
	if path != "-" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := rec.WriteEventsJSONL(w); err != nil {
		fatal(err)
	}
}

func figure8(emit func(*trace.Table), maxDim, runs int, seed int64) {
	t := trace.NewTable(
		fmt.Sprintf("Figure 8 — dmGS factorization error ‖V−QR‖∞/‖V‖∞, hypercube, m=16, %d runs", runs),
		"nodes", "dmGS(PF)", "dmGS(PCF)", "PF orth err", "PCF orth err")
	type row struct{ pf, pcf experiments.QRPoint }
	var rows []row
	for dim := 5; dim <= maxDim; dim++ {
		cfgPF := experiments.DefaultQRConfig(experiments.PushFlow, maxDim, runs)
		cfgPF.Seed = seed
		pf, err := experiments.QRSingle(cfgPF, dim)
		if err != nil {
			fatal(err)
		}
		cfgPCF := experiments.DefaultQRConfig(experiments.PCF, maxDim, runs)
		cfgPCF.Seed = seed
		pcf, err := experiments.QRSingle(cfgPCF, dim)
		if err != nil {
			fatal(err)
		}
		rows = append(rows, row{pf, pcf})
	}
	for _, r := range rows {
		t.AddRow(r.pf.Nodes, r.pf.FactErrMean, r.pcf.FactErrMean, r.pf.OrthErrMean, r.pcf.OrthErrMean)
	}
	emit(t)
}

func expA(emit func(*trace.Table), seed int64) {
	t := trace.NewTable("EXP-A — accuracy floor after a single lost message (6D hypercube, AVG)",
		"algorithm", "max local error floor", "rounds")
	for _, algo := range []experiments.Algorithm{experiments.PushSum, experiments.PushFlow, experiments.PCF, experiments.PCFRobust, experiments.FlowUpdating} {
		res := experiments.SingleLoss(algo, 6, 40, seed)
		t.AddRow(res.Algorithm, res.FloorMaxErr, res.Rounds)
	}
	emit(t)
}

func expB(emit func(*trace.Table), seed int64) {
	algos := []experiments.Algorithm{experiments.PushSum, experiments.PushFlow, experiments.PCF}
	points := experiments.Scaling(algos, 3, 12, 1e-9, seed)
	t := trace.NewTable("EXP-B — rounds to reach 1e-9 on hypercubes vs parallel log2(n) steps",
		"nodes", "push-sum", "PF", "PCF", "recursive-doubling steps")
	for _, p := range points {
		t.AddRow(p.Nodes, p.RoundsToEps["push-sum"], p.RoundsToEps["PF"], p.RoundsToEps["PCF"], p.ParallelSteps)
	}
	emit(t)
}

func expC(emit func(*trace.Table), seed int64) {
	t := trace.NewTable("EXP-C — PF ≡ PCF under identical failure-free schedules",
		"inputs", "rounds compared", "max estimate divergence", "PF rounds to 1e-12", "PCF rounds to 1e-12")
	// Dyadic inputs over few rounds: every operation is exact in binary
	// floating point (the value depth stays below 53 bits), so the
	// divergence must be exactly zero. Beyond ~20 rounds rounding sets
	// in and PF/PCF accumulate ulp-level ordering differences.
	dy := experiments.Equivalence(6, 15, seed, true, 1e-12)
	t.AddRow("dyadic (exact)", 15, dy.MaxDivergence, dy.RoundsPF, dy.RoundsPCF)
	fl := experiments.Equivalence(6, 400, seed, false, 1e-12)
	t.AddRow("uniform floats", 400, fl.MaxDivergence, fl.RoundsPF, fl.RoundsPCF)
	emit(t)
}

func expD(emit func(*trace.Table), seed int64) {
	algos := []experiments.Algorithm{experiments.PushSum, experiments.PushFlow, experiments.PCF}
	rates := []float64{0, 0.05, 0.1, 0.2, 0.4}
	points := experiments.LossSweep(algos, rates, 6, 1e-12, 4000, seed)
	t := trace.NewTable("EXP-D — convergence under sustained message loss (6D hypercube, target 1e-12)",
		"algorithm", "loss rate", "rounds to 1e-12", "best max error")
	for _, p := range points {
		t.AddRow(p.Algorithm, p.LossRate, p.RoundsToEps, p.FloorMaxErr)
	}
	emit(t)
}

func expE(emit func(*trace.Table), seed int64) {
	t := trace.NewTable("EXP-E — recovery from a bounded bit-flip storm (mantissa/sign bits, p=0.02/msg, rounds 0–100)",
		"algorithm", "flips injected", "best error after storm", "rounds to 1e-12 after storm")
	algos := []experiments.Algorithm{experiments.PushSum, experiments.PushFlow, experiments.PCF, experiments.PCFRobust}
	for _, algo := range algos {
		res := experiments.BitFlips(algo, 6, 0.02, 100, 600, 1e-12, true, seed)
		t.AddRow(res.Algorithm, res.Flips, res.FloorMaxErr, res.RecoveryRounds)
	}
	emit(t)
	t2 := trace.NewTable("EXP-E (unbounded) — same storm with exponent bits included: finite giant corruptions are conserved as mass transfers whose floating-point residue defeats every algorithm, motivating message checksums in deployments",
		"algorithm", "flips injected", "best error after storm", "rounds to 1e-12 after storm")
	for _, algo := range algos {
		res := experiments.BitFlips(algo, 6, 0.02, 100, 600, 1e-12, false, seed)
		t2.AddRow(res.Algorithm, res.Flips, res.FloorMaxErr, res.RecoveryRounds)
	}
	emit(t2)
}

func expG(emit func(*trace.Table), seed int64) {
	t := trace.NewTable("EXP-G — nodes with a wrong result after ONE lost message (n=1024)",
		"method", "nodes", "wrong nodes")
	for _, r := range experiments.Fragility(10, seed) {
		t.AddRow(r.Method, r.Nodes, r.WrongNodes)
	}
	emit(t)
}

func expH(emit func(*trace.Table), seed int64) {
	// Whether a message is in flight on the failing link at the failure
	// round depends on the schedule, so sweep the failure time and
	// report the worst final error per model: under the quiescent model
	// PCF always returns to machine precision, under the abrupt model
	// the runs that lose an unacked flow delta retain an ε(t_fail)/n
	// bias floor.
	t := trace.NewTable("EXP-H — link-failure model: quiescent (paper) vs abrupt (in-flight delta lost); failure swept over iterations 60–99, 400 iterations total",
		"algorithm", "failure model", "worst final err", "runs with floor > 1e-13")
	for _, algo := range []experiments.Algorithm{experiments.PushFlow, experiments.PCF} {
		for _, abrupt := range []bool{false, true} {
			worst := 0.0
			floored := 0
			for failAt := 60; failAt < 100; failAt++ {
				cfg := experiments.DefaultFailureConfig(algo, failAt)
				cfg.Seed = seed
				cfg.Rounds = 400
				cfg.Abrupt = abrupt
				res := experiments.Failure(cfg)
				if res.ErrFinal > worst {
					worst = res.ErrFinal
				}
				if res.ErrFinal > 1e-13 {
					floored++
				}
			}
			model := "quiescent"
			if abrupt {
				model = "abrupt"
			}
			t.AddRow(algo.Name, model, worst, fmt.Sprintf("%d/40", floored))
		}
	}
	emit(t)
}

func expI(emit func(*trace.Table), seed int64) {
	t := trace.NewTable("EXP-I — node crash at iteration 100 (5D hypercube, 400 iterations): which aggregate do the survivors converge to?",
		"algorithm", "err vs survivors' initial aggregate", "err vs original aggregate", "survivor agreement spread")
	for _, algo := range []experiments.Algorithm{experiments.PushFlow, experiments.PCF} {
		rounds := 400
		if algo.Name == "PF" {
			rounds = 2000 // PF restarts at the crash; give it time to re-converge
		}
		res := experiments.NodeCrash(algo, 5, 100, rounds, 7, seed)
		t.AddRow(algo.Name, res.ErrFinalVsSurvivors, res.ErrFinalVsOriginal, res.Spread)
	}
	emit(t)
}

func expJ(emit func(*trace.Table), seed int64) {
	t := trace.NewTable("EXP-J — live monitoring: drifting inputs (one random-walk step every 10 rounds) under 5% message loss; steady-state tracking error (6D hypercube, 1200 rounds)",
		"algorithm", "median tracking error", "worst tracking error")
	for _, algo := range []experiments.Algorithm{experiments.PushSum, experiments.PushFlow, experiments.PCF} {
		res := experiments.Monitoring(algo, 6, 1200, 10, 0.05, seed)
		t.AddRow(res.Algorithm, res.TrackingErrMedian, res.TrackingErrWorst)
	}
	emit(t)
}

func expK(emit func(*trace.Table), seed int64) {
	algos := []experiments.Algorithm{experiments.PushFlow, experiments.PCF, experiments.FlowUpdating}
	dists := []experiments.DataDist{
		experiments.DistUniform, experiments.DistConstant, experiments.DistLinear,
		experiments.DistLogNormal, experiments.DistSigned,
	}
	points := experiments.DataDistSweep(algos, dists, 9, seed)
	t := trace.NewTable("EXP-K — accuracy floor vs initial-data distribution (512-node hypercube, AVG): Sec. II-B's data dependence for PF/FU, PCF insensitive",
		"algorithm", "distribution", "max local error floor")
	for _, p := range points {
		t.AddRow(p.Algorithm, p.Distribution, p.FloorMaxErr)
	}
	emit(t)
}
