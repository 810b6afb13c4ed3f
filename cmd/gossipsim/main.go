// Command gossipsim is a general-purpose driver for the reduction
// algorithms: pick an algorithm, a topology, an aggregate and a fault
// scenario, and watch the reduction converge.
//
// Examples:
//
//	gossipsim -algo pcf -topo hypercube:8 -agg avg
//	gossipsim -algo pf -topo torus3d:8 -agg sum -eps 1e-12
//	gossipsim -algo pcf -topo hypercube:6 -faillink 100:0:1 -rounds 250 -trace 10
//	gossipsim -algo pushsum -topo grid2d:16x16 -loss 0.05
//	gossipsim -algo pcf -topo ring:64 -crash 50:3
//	gossipsim -algo pcf-robust -topo hypercube:6 -concurrent -eps 1e-9
//	gossipsim -algo pcf -topo hypercube:6 -event -latency 0.05,0.2
//
// Oracle-free failure detection (silent faults nobody is notified of;
// the detector of internal/detect must discover them):
//
//	gossipsim -algo pcf -topo hypercube:6 -detect -silent-crash 100:21
//	gossipsim -algo pcf -topo ring:32 -detect -detect-timeout 30 -outage 50:400:0:1
//	gossipsim -algo pcf -topo hypercube:6 -detect -detect-policy phi -phi 6 -silent-crash 200:40
//	gossipsim -topo hypercube:6 -detect-exp -detect-params 10,20,40,80,160
//
// Open-world membership (sustained join/leave/rewire churn and the
// per-link transmission-failure bias experiment):
//
//	gossipsim -churn -algo pf,pcf,pcf-robust -topo hypercube:6 -rounds 400 -seed 7
//	gossipsim -churn -algo pcf -topo hypercube:6 -rounds 400 -shards 4 -mass-tol 1e-6
//	gossipsim -lossbias -algo pushsum,pf,fu -topo hypercube:6 -loss 0.2 -rounds 60
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pcfreduce"
	"pcfreduce/internal/checkpoint"
	"pcfreduce/internal/detect"
	"pcfreduce/internal/experiments"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/profiling"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
	"pcfreduce/internal/trace"
)

// phaseLabels is set in main when -cpuprofile is given: sharded engines
// built by the run paths then attach runtime/pprof phase/shard labels to
// their pooled tasks.
var phaseLabels bool

func main() {
	var (
		algoName   = flag.String("algo", "pcf", "algorithm: pcf|pcf-robust|pf|pushsum|fu")
		topoSpec   = flag.String("topo", "hypercube:6", "topology: hypercube:D | torus3d:S | torus2d:AxB | grid2d:AxB | ring:N | path:N | complete:N | randreg:N,D")
		aggName    = flag.String("agg", "avg", "aggregate: avg|sum")
		eps        = flag.Float64("eps", 1e-12, "target maximal relative local error")
		rounds     = flag.Int("rounds", 0, "max rounds (0 = auto)")
		seed       = flag.Int64("seed", 1, "random seed (inputs and schedule)")
		loss       = flag.Float64("loss", 0, "message loss probability")
		failLink   = flag.String("faillink", "", "permanent link failure ROUND:A:B (repeatable, comma-separated)")
		crash      = flag.String("crash", "", "node crash ROUND:NODE (repeatable, comma-separated)")
		traceEvery = flag.Int("trace", 0, "print the max error every K rounds (0 = off)")
		concurrent = flag.Bool("concurrent", false, "run on the goroutine runtime instead of the round simulator")
		timeout    = flag.Duration("timeout", 10*time.Second, "wall-clock bound for -concurrent")
		eventMode  = flag.Bool("event", false, "run on the continuous-time event engine (per-message latencies)")
		latency    = flag.String("latency", "0.05,0.2", "message latency range MIN,MAX in gossip-interval units for -event")
		simTime    = flag.Float64("simtime", 5000, "simulated-time bound for -event")

		detectMode    = flag.Bool("detect", false, "enable the oracle-free failure detector (round simulator)")
		detectPolicy  = flag.String("detect-policy", "fixed", "suspicion policy: fixed|phi")
		detectTimeout = flag.Float64("detect-timeout", 50, "silence timeout in rounds (fixed policy; φ bootstrap)")
		phiThreshold  = flag.Float64("phi", 8, "φ-accrual suspicion threshold")
		silentCrash   = flag.String("silent-crash", "", "UNANNOUNCED node crash ROUND:NODE (repeatable, comma-separated)")
		outage        = flag.String("outage", "", "transient silent link outage FROM:TO:A:B (repeatable, comma-separated)")
		detectExp     = flag.Bool("detect-exp", false, "run the detection latency/false-positive sweep (EXP-L) and exit")
		detectParams  = flag.String("detect-params", "10,20,40,80,160", "sweep axis for -detect-exp: timeouts in rounds (fixed) or φ thresholds (phi)")
		trials        = flag.Int("trials", 5, "seeds per sweep point for -detect-exp")

		sweepMode       = flag.Bool("sweep", false, "run the standard experiment grid on the parallel sweep engine and exit")
		workers         = flag.Int("workers", 0, "worker-pool size for -sweep (0 = auto); any value yields bit-identical results")
		sweepJSON       = flag.String("sweep-json", "", "write the -sweep result JSON to this file instead of a summary to stdout")
		checkpointDir   = flag.String("checkpoint-dir", "", "with -sweep: directory for durable per-trial results and mid-trial engine checkpoints")
		checkpointEvery = flag.Int("checkpoint-every", 0, "with -sweep: mid-trial checkpoint cadence in rounds (needs -checkpoint-dir; mid-trial restore needs -shards ≥ 1)")
		resumeSweep     = flag.Bool("resume", false, "with -sweep: skip trials already completed in -checkpoint-dir and restore interrupted trials from their mid-trial checkpoints")

		replayFrom    = flag.String("replay-from", "", "restore an engine checkpoint file (written by -snapshot-every or a sweep's -checkpoint-dir) and re-execute from its round with tracing; the -topo flag must rebuild the topology the snapshot was taken on")
		snapshotEvery = flag.Int("snapshot-every", 0, "write an engine checkpoint every K rounds to -snapshot-out (round simulator; implies -shards 1 when -shards is 0)")
		snapshotOut   = flag.String("snapshot-out", "gossipsim.ckpt", "checkpoint file path for -snapshot-every")
		recoveryExp   = flag.Bool("recovery-exp", false, "run the recovery-strategy comparison (detector reintegration vs checkpoint-restart) and exit")

		churnMode   = flag.Bool("churn", false, "run the sustained-churn experiment (generated joins, graceful leaves, rewires, per-link loss) and exit non-zero on mass drift or non-convergence; -algo accepts a comma-separated list here")
		churnEvery  = flag.Int("churn-every", 10, "rounds between membership events for -churn")
		churnLosses = flag.Int("churn-losses", 0, "seed the -churn schedule with this many lossy base links (rates drawn up to 0.05)")
		quietTail   = flag.Int("quiet-tail", 0, "churn-free settling rounds at the end of the -churn horizon (0 = rounds/4)")
		massTol     = flag.Float64("mass-tol", 1e-9, "relative mass-conservation bound -churn enforces at the drained horizon; the sequential executor holds ~1e-16, the phase-split executor (-shards > 0) drains with a crossing transient on the order of the final error, so loosen to ~1e-6 there")
		lossBias    = flag.Bool("lossbias", false, "run the arXiv 1504.08193 transmission-failure bias experiment (-loss is the per-link rate, default 0.2; -algo accepts a comma-separated list) and exit")

		shards     = flag.Int("shards", 0, "run round-simulator reductions on the sharded executor with this many shards (0 = sequential); results are byte-identical for any shards ≥ 1")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		metricsEvery = flag.Int("metrics", 0, "sample the invariant probes (mass residual, in-flight weight, error quantiles, flow anti-symmetry) every K rounds and print the sample table at the end (0 = off)")
		eventsOut    = flag.String("events", "", `write the trace-event ring (faults, evictions, reintegrations, convergence epochs) as JSONL to this file ("-" = stdout)`)
		metricsAddr  = flag.String("metrics-addr", "", "serve Prometheus text at /metrics, expvar at /debug/vars and pprof at /debug/pprof/ on this address for the duration of the run (concurrent runtime and round-simulator runs)")
		timingFlag   = flag.Bool("timing", false, "record the flight recorder's per-phase/per-shard duration histograms (sharded executor; timing never changes results) and print the phase table at the end")
		timelineOut  = flag.String("timeline", "", "write a Chrome-trace / Perfetto JSON timeline of the sharded round — one track per worker, phase/shard slices, fault/churn/snapshot instant events — to this file (implies -timing and the simulator fault path; open at https://ui.perfetto.dev)")
		churnPlan    = flag.Bool("churn-plan", false, "merge a generated open-world churn schedule (cadence -churn-every, lossy links -churn-losses) into the simulator fault path's plan; requires -agg avg")
	)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()
	// When a CPU profile is being taken, tag the sharded engine's pooled
	// tasks with runtime/pprof phase/shard labels so the profile breaks
	// down by activate/deliver phase (see EXPERIMENTS.md). Opt-in via the
	// profile flag because the labels cost an allocation per task.
	phaseLabels = *cpuProfile != ""

	// A shard count past the scheduler budget would only oversubscribe
	// the machine (and, combined with -sweep workers, used to surface as
	// a panic deep in the pool) — refuse it up front with a real error.
	if procs := runtime.GOMAXPROCS(0); *shards > procs {
		fatal(fmt.Errorf("-shards %d exceeds the GOMAXPROCS budget (%d); lower -shards or raise GOMAXPROCS", *shards, procs))
	}

	if *sweepMode {
		runSweep(*workers, *shards, *seed, *rounds, *sweepJSON, *metricsEvery,
			*checkpointDir, *checkpointEvery, *resumeSweep)
		return
	}

	if *churnMode || *lossBias {
		g, err := parseTopo(*topoSpec, *seed)
		if err != nil {
			fatal(err)
		}
		algos, err := parseAlgoList(*algoName)
		if err != nil {
			fatal(err)
		}
		epsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "eps" {
				epsSet = true
			}
		})
		if *churnMode {
			runChurn(g, algos, *rounds, *churnEvery, *churnLosses, *quietTail, *seed, *shards, *massTol, *eps, epsSet)
			return
		}
		runLossBias(g, algos, *loss, *rounds, *seed)
		return
	}

	algo, err := parseAlgo(*algoName)
	if err != nil {
		fatal(err)
	}
	g, err := parseTopo(*topoSpec, *seed)
	if err != nil {
		fatal(err)
	}
	agg := pcfreduce.Average
	switch strings.ToLower(*aggName) {
	case "avg", "average":
	case "sum":
		agg = pcfreduce.Sum
	default:
		fatal(fmt.Errorf("unknown aggregate %q", *aggName))
	}

	rng := rand.New(rand.NewSource(*seed))
	inputs := make([]float64, g.N())
	for i := range inputs {
		inputs[i] = rng.Float64() * 100
	}

	fmt.Printf("gossipsim: %s on %s (%d nodes, diameter-friendly degree %d), aggregate %s\n",
		algo, g.Name(), g.N(), g.MaxDegree(), agg)

	if *detectExp {
		pol, err := parsePolicy(*detectPolicy)
		if err != nil {
			fatal(err)
		}
		params, err := parseFloats(*detectParams)
		if err != nil {
			fatal(fmt.Errorf("bad -detect-params: %w", err))
		}
		expAlgo, err := experiments.AlgorithmByName(*algoName)
		if err != nil {
			fatal(err)
		}
		runDetectExp(g, expAlgo, pol, params, *trials, *seed, *detectTimeout)
		return
	}

	if *recoveryExp {
		runRecoveryExp(g, max(1, *shards), *seed, *detectTimeout)
		return
	}

	if *detectMode || *silentCrash != "" || *outage != "" || *replayFrom != "" || *snapshotEvery > 0 ||
		*timelineOut != "" || *churnPlan {
		pol, err := parsePolicy(*detectPolicy)
		if err != nil {
			fatal(err)
		}
		plan, err := buildSilentPlan(g, *silentCrash, *outage, *failLink, *crash)
		if err != nil {
			fatal(err)
		}
		var dc *detect.Config
		if *detectMode {
			dc = &detect.Config{
				Policy:       pol,
				Timeout:      *detectTimeout,
				PhiThreshold: *phiThreshold,
			}
		} else if *silentCrash != "" || *outage != "" {
			fmt.Println("note: silent faults without -detect — nobody will ever evict the failed components")
		}
		rec := newRecorder(*metricsEvery, *traceEvery, max(1, *shards), *eventsOut,
			*timingFlag || *timelineOut != "")
		if rec == nil && *metricsAddr != "" {
			rec = metrics.New(metrics.Config{Shards: max(1, *shards), Interval: 10})
		}
		stopServe := serveSimMetrics(*metricsAddr, rec)
		runDetect(g, algo, agg, inputs, *eps, *seed, *rounds, *shards, plan, dc, *traceEvery, rec,
			ckptOpts{replayFrom: *replayFrom, every: *snapshotEvery, out: *snapshotOut},
			obsOpts{timelineOut: *timelineOut, churn: *churnPlan, churnEvery: *churnEvery,
				churnLosses: *churnLosses, algoName: *algoName})
		reportMetrics(rec, *metricsEvery > 0, *eventsOut)
		stopServe()
		return
	}

	if *eventMode {
		lmin, lmax, err := parseRange(*latency)
		if err != nil {
			fatal(err)
		}
		runEvent(g, algo, agg, inputs, *eps, *seed, lmin, lmax, *simTime)
		return
	}

	if *concurrent {
		rec := newRecorder(*metricsEvery, *traceEvery, 1, *eventsOut, false)
		if rec == nil && *metricsAddr != "" {
			rec = metrics.New(metrics.Config{Concurrent: true})
		}
		res, err := pcfreduce.ReduceConcurrent(context.Background(), inputs, algo, pcfreduce.ConcurrentOptions{
			Topology:    g,
			Aggregate:   agg,
			Eps:         *eps,
			Timeout:     *timeout,
			Seed:        *seed,
			Metrics:     rec,
			MetricsAddr: *metricsAddr,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("concurrent run: converged=%v maxErr=%.3e exact=%.6g node0=%.6g\n",
			res.Converged, res.MaxError, res.Exact, res.Estimates[0])
		reportMetrics(rec, *metricsEvery > 0, *eventsOut)
		return
	}

	if *timingFlag && *shards == 0 {
		fmt.Println("note: -timing times the sharded executor's phases — pass -shards ≥ 1 to record any")
	}
	rec := newRecorder(*metricsEvery, *traceEvery, *shards, *eventsOut, *timingFlag && *shards > 0)
	if rec == nil && *metricsAddr != "" {
		rec = metrics.New(metrics.Config{Shards: max(1, *shards), Interval: 10})
	}
	stopServe := serveSimMetrics(*metricsAddr, rec)
	defer stopServe()
	opt := pcfreduce.ReduceOptions{
		Topology:  g,
		Aggregate: agg,
		Eps:       *eps,
		MaxRounds: *rounds,
		Seed:      *seed,
		LossRate:  *loss,
		Shards:    *shards,
		Metrics:   rec,
	}
	if *failLink != "" {
		for _, spec := range strings.Split(*failLink, ",") {
			r, a, b, err := parse3(spec)
			if err != nil {
				fatal(fmt.Errorf("bad -faillink %q: %w", spec, err))
			}
			opt.LinkFailures = append(opt.LinkFailures, pcfreduce.LinkFailure{Round: r, A: a, B: b})
		}
	}
	if *crash != "" {
		for _, spec := range strings.Split(*crash, ",") {
			parts := strings.Split(spec, ":")
			if len(parts) != 2 {
				fatal(fmt.Errorf("bad -crash %q (want ROUND:NODE)", spec))
			}
			r, err1 := strconv.Atoi(parts[0])
			nd, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				fatal(fmt.Errorf("bad -crash %q", spec))
			}
			opt.NodeCrashes = append(opt.NodeCrashes, pcfreduce.NodeCrash{Round: r, Node: nd})
		}
	}
	opt.Trace = traceFunc(*traceEvery, rec)
	res, err := pcfreduce.Reduce(inputs, algo, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("finished after %d rounds: converged=%v maxErr=%.3e\n", res.Rounds, res.Converged, res.MaxError)
	fmt.Printf("exact aggregate %.9g; node 0 estimates %.9g\n", res.Exact, res.Estimates[0])
	reportMetrics(rec, *metricsEvery > 0, *eventsOut)
}

// newRecorder builds the run's metrics recorder. All four observation
// flags (-metrics, -events, -trace, -timing) share it, so there is
// exactly one probing code path: -trace alone samples at the trace
// cadence (that is where its mass-residual column comes from), -metrics
// sets its own cadence and additionally prints the sample table,
// -events only needs the ring, and -timing only needs the per-shard
// timing banks — when timing is the sole request the sampling interval
// falls back to effectively-never so the invariant probes stay off.
// Returns nil — the recorder that costs nothing — when no observation
// was requested.
func newRecorder(metricsEvery, traceEvery, shards int, eventsPath string, timing bool) *metrics.Recorder {
	if metricsEvery <= 0 && traceEvery <= 0 && eventsPath == "" && !timing {
		return nil
	}
	interval := metricsEvery
	if interval <= 0 {
		interval = traceEvery
	}
	if interval <= 0 {
		interval = 1 << 30
	}
	return metrics.New(metrics.Config{Shards: max(1, shards), Interval: interval, Timing: timing})
}

// serveSimMetrics binds -metrics-addr for simulator runs and serves the
// same observability endpoint the concurrent runtime exposes through
// ConcurrentOptions.MetricsAddr: /metrics (Prometheus text, including
// the flight recorder's phase summaries when -timing is on),
// /debug/vars (expvar under "pcfreduce") and /debug/pprof. Returns a
// stop function; a no-op when the address is empty or no recorder
// exists.
func serveSimMetrics(addr string, rec *metrics.Recorder) func() {
	if addr == "" || rec == nil {
		return func() {}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(fmt.Errorf("-metrics-addr: %w", err))
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", rec.Handler())
	metrics.PublishExpvar(rec)
	mux.Handle("/debug/vars", expvar.Handler())
	profiling.AttachPprof(mux)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // closed by the stop function
	fmt.Printf("metrics endpoint: http://%s/metrics\n", ln.Addr())
	return func() { srv.Close() }
}

// traceFunc returns the per-round trace printer. With a recorder
// attached the printer reads the round's invariant sample, so the trace
// reports the global mass-conservation residual alongside the oracle
// error through the same probe -metrics uses.
func traceFunc(every int, rec *metrics.Recorder) func(round int, maxErr float64) {
	if every <= 0 {
		return nil
	}
	return func(round int, maxErr float64) {
		if round%every != 0 {
			return
		}
		if rec.LastRound() == round {
			s, _ := rec.Last()
			fmt.Printf("  round %5d  max local error %.3e  mass residual %.3e\n",
				round, maxErr, float64(s.MassResidual))
			return
		}
		fmt.Printf("  round %5d  max local error %.3e\n", round, maxErr)
	}
}

// reportMetrics prints the sample table (under -metrics), the flight
// recorder's phase table (under -timing / -timeline) and writes the
// event trace (under -events) once the run is over.
func reportMetrics(rec *metrics.Recorder, table bool, eventsPath string) {
	if rec == nil {
		return
	}
	if ps := rec.PhaseStats(); len(ps) > 0 {
		t := trace.NewTable("flight recorder: phase timing (merged over shards and rounds)",
			"phase", "count", "total ms", "mean us", "p50 us", "p90 us", "p99 us", "max us")
		for _, s := range ps {
			t.AddRow(s.Phase, s.Count,
				float64(s.SumNs)/1e6,
				float64(s.SumNs)/float64(s.Count)/1e3,
				s.P50Ns/1e3, s.P90Ns/1e3, s.P99Ns/1e3,
				float64(s.MaxNs)/1e3)
		}
		fmt.Print(t.String())
	}
	if table {
		fmt.Print(rec.Table().String())
		snap := rec.Counters()
		// freelist=hits/requests covers pooled messages only (keepalives,
		// probes, interceptor copies): data messages live in per-node
		// slots, so a run without a detector or interceptor prints 0/0.
		fmt.Printf("counters: sent=%d delivered=%d lost=%d dropped=%d corrupted=%d keepalives=%d suspicions=%d evictions=%d reintegrations=%d freelist=%d/%d\n",
			snap.Get(metrics.MsgsSent), snap.Get(metrics.MsgsDelivered),
			snap.Get(metrics.MsgsLost), snap.Get(metrics.MsgsDropped),
			snap.Get(metrics.MsgsCorrupted), snap.Get(metrics.Keepalives),
			snap.Get(metrics.Suspicions), snap.Get(metrics.Evictions),
			snap.Get(metrics.Reintegrations),
			snap.Get(metrics.FreeListHits), snap.Get(metrics.FreeListHits)+snap.Get(metrics.FreeListMisses))
	}
	if eventsPath == "" {
		return
	}
	w := os.Stdout
	if eventsPath != "-" {
		f, err := os.Create(eventsPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := rec.WriteEventsJSONL(w); err != nil {
		fatal(err)
	}
	if dropped := rec.EventsDropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "gossipsim: %d oldest trace events overwritten (ring full)\n", dropped)
	}
}

// runSweep executes the standard experiment grid (experiments.DefaultSweep)
// on the parallel sweep engine. Neither the worker count nor the shard
// count changes the numbers — every trial's seed is derived from the
// root seed and its grid position, and the sharded executor is
// byte-identical across shard counts — so -workers and -shards only
// trade wall-clock time (shards > 0 does select the sharded executor's
// own deterministic schedule, a different experiment from shards = 0).
func runSweep(workers, shards int, seed int64, rounds int, jsonPath string, metricsEvery int,
	checkpointDir string, checkpointEvery int, resume bool) {
	cfg := experiments.DefaultSweep()
	cfg.Workers = workers
	cfg.Shards = shards
	cfg.RootSeed = seed
	if rounds > 0 {
		cfg.MaxRounds = rounds
	}
	cfg.Record = jsonPath != ""
	if metricsEvery > 0 {
		cfg.Metrics = true
		cfg.MetricsEvery = metricsEvery
	}
	cfg.CheckpointDir = checkpointDir
	cfg.CheckpointEvery = checkpointEvery
	cfg.Resume = resume
	start := time.Now()
	res, err := experiments.Sweep(cfg)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	if jsonPath != "" {
		if err := os.WriteFile(jsonPath, res.JSON(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("sweep: %d trials in %v, wrote %s\n", len(res.Trials), elapsed.Round(time.Millisecond), jsonPath)
		return
	}
	fmt.Printf("sweep: %d trials in %v (root seed %d)\n", len(res.Trials), elapsed.Round(time.Millisecond), seed)
	fmt.Printf("  %-14s %-13s %-12s %6s %10s %12s\n", "topology", "algorithm", "plan", "trial", "rounds", "final max")
	for _, tr := range res.Trials {
		fmt.Printf("  %-14s %-13s %-12s %6d %10d %12.3e\n",
			tr.Topology, tr.Algorithm, tr.Plan, tr.Trial, tr.Rounds, tr.FinalMax)
	}
}

// runEvent drives the continuous-time engine directly (it is below the
// public facade, like the fault scheduling features of this command).
func runEvent(g *pcfreduce.Graph, algo pcfreduce.Algorithm, agg pcfreduce.Aggregate, inputs []float64, eps float64, seed int64, lmin, lmax, simTime float64) {
	protos := make([]pcfreduce.Protocol, g.N())
	for i := range protos {
		protos[i] = algo.NewNode()
	}
	init := make([]gossip.Value, g.N())
	for i, x := range inputs {
		init[i] = gossip.Scalar(x, agg.InitialWeight(i))
	}
	e := sim.NewEvent(g, protos, init, sim.EventConfig{
		MeanInterval:   1,
		IntervalJitter: 0.5,
		LatencyMin:     lmin,
		LatencyMax:     lmax,
		Seed:           seed,
	})
	res := e.RunUntil(simTime, eps)
	fmt.Printf("event engine: converged=%v at t=%.1f (%d activations, %d sends), maxErr=%.3e\n",
		res.Converged, res.Time, e.Activations, e.Sends, res.FinalMaxError)
	fmt.Printf("exact aggregate %.9g\n", e.Targets()[0])
}

// ckptOpts routes the checkpoint features through runDetect: restore a
// snapshot before running (-replay-from) and/or write one every K
// rounds (-snapshot-every). Either implies the sharded executor, the
// only one whose state is serializable.
type ckptOpts struct {
	replayFrom string
	every      int
	out        string
}

// obsOpts routes the flight-recorder features through runDetect: a
// Perfetto timeline export destination (-timeline) and the generated
// churn schedule merged into the fault plan (-churn-plan), whose
// membership events then show up as instants on the timeline's events
// track.
type obsOpts struct {
	timelineOut string
	churn       bool
	churnEvery  int
	churnLosses int
	algoName    string
}

// runDetect drives the round simulator directly (below the public
// facade, like runEvent) with a failure plan of silent faults and,
// optionally, the oracle-free detector.
func runDetect(g *pcfreduce.Graph, algo pcfreduce.Algorithm, agg pcfreduce.Aggregate, inputs []float64, eps float64, seed int64, rounds, shards int, plan *fault.Plan, dc *detect.Config, traceEvery int, rec *metrics.Recorder, ck ckptOpts, obs obsOpts) {
	protos := make([]pcfreduce.Protocol, g.N())
	for i := range protos {
		protos[i] = algo.NewNode()
	}
	init := make([]gossip.Value, g.N())
	for i, x := range inputs {
		init[i] = gossip.Scalar(x, agg.InitialWeight(i))
	}
	if (ck.replayFrom != "" || ck.every > 0) && shards == 0 {
		shards = 1
	}
	// Phase timing and the timeline are features of the sharded
	// executor's phase-split round; recording them on one shard is the
	// degenerate-but-valid case.
	if (obs.timelineOut != "" || rec.TimingEnabled()) && shards == 0 {
		shards = 1
	}
	if rounds == 0 {
		rounds = 20000
	}
	var opts []sim.EngineOption
	if dc != nil {
		opts = append(opts, sim.WithDetector(*dc))
	}
	if shards > 0 {
		opts = append(opts, sim.WithShards(shards))
	}
	if phaseLabels && shards > 0 {
		opts = append(opts, sim.WithPhaseLabels())
	}
	if obs.churn {
		if agg != pcfreduce.Average {
			fatal(fmt.Errorf("-churn-plan requires -agg avg (nodes join with weight 1, the average's share)"))
		}
		expAlgo, err := experiments.AlgorithmByName(obs.algoName)
		if err != nil {
			fatal(err)
		}
		churn := fault.ChurnSchedule(g, fault.ChurnOptions{
			Rounds: rounds,
			Every:  obs.churnEvery,
			Losses: obs.churnLosses,
		}, seed)
		plan.Add(churn.Events()...)
		opts = append(opts, sim.WithJoinFactory(expAlgo.New))
	}
	e := sim.New(g, protos, init, seed, opts...)
	defer e.Close()
	var resume *sim.RunState
	if ck.replayFrom != "" {
		c, err := checkpoint.ReadFile(ck.replayFrom)
		if err != nil {
			fatal(fmt.Errorf("-replay-from: %w", err))
		}
		// Restore overwrites inputs, RNG streams and round counter from
		// the snapshot, so the replay re-executes the original run
		// bit-for-bit; only the topology must match, which Restore
		// validates.
		if err := e.Restore(c.Snap); err != nil {
			fatal(fmt.Errorf("-replay-from %s: %w", ck.replayFrom, err))
		}
		if c.Run != nil {
			resume = c.Run
		} else {
			resume = &sim.RunState{RoundsDone: c.Snap.Round}
		}
		fmt.Printf("replay: restored %s at round %d\n", ck.replayFrom, c.Snap.Round)
	}
	if rec != nil {
		e.SetMetrics(rec) // after Restore, which detaches any recorder
		if ck.replayFrom != "" {
			rec.RecordEvent(metrics.Event{Kind: metrics.EvReplay, Round: e.Round(), A: -1, B: -1})
		}
	}
	var tl *metrics.Timeline
	if obs.timelineOut != "" {
		tl = metrics.NewTimeline(shards)
		e.SetTimeline(tl) // after Restore, like the recorder
	}
	cfg := sim.RunConfig{MaxRounds: rounds, Eps: eps, OnRound: plan.OnRound, AfterRound: traceFunc(traceEvery, rec), Resume: resume}
	if ck.every > 0 {
		cfg.CheckpointEvery = ck.every
		cfg.OnCheckpoint = func(e *sim.Engine, rs sim.RunState) {
			snap, err := e.Snapshot()
			if err != nil {
				fatal(err)
			}
			if err := checkpoint.WriteFile(ck.out, &checkpoint.Checkpoint{Snap: snap, Run: &rs}); err != nil {
				fatal(err)
			}
			fmt.Printf("  checkpoint at round %d -> %s\n", rs.RoundsDone, ck.out)
		}
	}
	res := e.Run(cfg)
	// The oracle error cannot cross the eviction-bias floor after a
	// silent crash (mass drained into the dead links is absorbed at
	// eviction), so report internal consensus alongside it: a tiny
	// spread with a larger maxErr means the survivors agreed on a
	// slightly biased aggregate.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, est := range e.Estimates() {
		if est == nil {
			continue
		}
		lo = math.Min(lo, est[0])
		hi = math.Max(hi, est[0])
	}
	fmt.Printf("finished after %d rounds: converged=%v maxErr=%.3e spread=%.3e\n",
		res.Rounds, res.Converged, e.MaxError(), hi-lo)
	if dc != nil {
		st := e.DetectorStats()
		fmt.Printf("detector (%s): %d suspicions, %d reintegrations, %d keepalives/probes\n",
			dc.Policy, st.Suspicions, st.Reintegrations, st.Keepalives)
		for i := 0; i < g.N(); i++ {
			if s := e.Suspects(i); len(s) > 0 {
				fmt.Printf("  node %d still suspects %v\n", i, s)
			}
		}
	}
	fmt.Printf("exact aggregate over survivors %.9g\n", e.Targets()[0])
	if obs.timelineOut != "" {
		f, err := os.Create(obs.timelineOut)
		if err != nil {
			fatal(err)
		}
		tw := metrics.TimelineWriter{Timeline: tl, Recorder: rec}
		if _, err := tw.WriteTo(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		spans := 0
		for _, track := range tl.Spans() {
			spans += len(track)
		}
		fmt.Printf("timeline: %d spans on %d worker tracks -> %s (open at https://ui.perfetto.dev)\n",
			spans, tl.Workers(), obs.timelineOut)
	}
}

// runDetectExp runs EXP-L and prints the latency/false-positive table.
func runDetectExp(g *pcfreduce.Graph, algo experiments.Algorithm, pol detect.Policy, params []float64, trials int, seed int64, bootstrap float64) {
	pts, err := experiments.DetectionTradeoff(experiments.DetectionConfig{
		Graph:            g,
		Algo:             algo,
		Policy:           pol,
		Params:           params,
		BootstrapTimeout: bootstrap,
		Trials:           trials,
		Seed:             seed,
	})
	if err != nil {
		fatal(err)
	}
	axis := "timeout(rounds)"
	if pol == detect.PhiAccrual {
		axis = "φ-threshold"
	}
	fmt.Printf("detection trade-off (%s policy, %d trials/point, silent crash of node %d):\n",
		pol, trials, g.N()/3)
	fmt.Printf("  %-16s %14s %12s %14s %14s %7s\n", axis, "mean latency", "max latency", "false alarms", "reintegrated", "missed")
	for _, pt := range pts {
		fmt.Printf("  %-16g %14.1f %12d %14.2f %14.2f %7d\n",
			pt.Param, pt.MeanLatency, pt.MaxLatency, pt.FalsePositives, pt.Reintegrations, pt.Missed)
	}
}

// runChurn executes the sustained-churn experiment for every requested
// algorithm over one shared schedule and enforces the open-world
// acceptance criteria: convergence to the live-roster mean and the
// Sec. II-A mass invariant over the drained final roster within
// -mass-tol. Any failure exits non-zero, which is what makes this the
// CI smoke entry point for the membership subsystem.
func runChurn(g *topology.Graph, algos []experiments.Algorithm, rounds, every, losses, tail int, seed int64, shards int, massTol, eps float64, epsSet bool) {
	if rounds == 0 {
		rounds = 400
	}
	cfg := experiments.ChurnConfig{
		Graph:     g,
		Opts:      fault.ChurnOptions{Every: every, Losses: losses},
		Rounds:    rounds,
		Seed:      seed,
		Shards:    shards,
		QuietTail: tail,
	}
	if epsSet {
		cfg.Eps = eps // default otherwise: the experiment's 1e-6, not this command's 1e-12
	}
	results := experiments.ChurnSweep(cfg, algos)
	fmt.Printf("churn: %s, %d rounds (events every %d, seed %d, shards %d)\n",
		g.Name(), rounds, every, seed, shards)
	fmt.Printf("  %-13s %6s %7s %8s %6s %11s %13s %13s  %s\n",
		"algorithm", "joins", "leaves", "rewires", "lossy", "final live", "final err", "mass resid", "verdict")
	failed := false
	for _, r := range results {
		verdict := "ok"
		switch {
		case !r.Converged:
			verdict = "FAIL (no convergence)"
			failed = true
		case r.FinalMassResidual > massTol:
			verdict = fmt.Sprintf("FAIL (mass > %.0e)", massTol)
			failed = true
		}
		fmt.Printf("  %-13s %6d %7d %8d %6d %11d %13.3e %13.3e  %s\n",
			r.Algorithm, r.Joins, r.Leaves, r.Rewires, r.LossyLinks,
			r.FinalLive, r.FinalMaxErr, r.FinalMassResidual, verdict)
	}
	if failed {
		os.Exit(1)
	}
}

// runLossBias prints the per-algorithm transmission-failure bias table:
// measured weight retention against the arXiv 1504.08193 prediction.
func runLossBias(g *topology.Graph, algos []experiments.Algorithm, p float64, rounds int, seed int64) {
	if p <= 0 {
		p = 0.2
	}
	if rounds == 0 {
		rounds = 60
	}
	fmt.Printf("loss bias: %s, per-link loss %.2f over %d rounds (seed %d)\n", g.Name(), p, rounds, seed)
	fmt.Printf("  %-13s %16s %16s %14s\n", "algorithm", "weight retained", "predicted", "estimate bias")
	for _, a := range algos {
		res := experiments.LossBias(experiments.LossBiasConfig{
			Algorithm: a,
			Graph:     g,
			P:         p,
			Rounds:    rounds,
			Seed:      seed,
		})
		fmt.Printf("  %-13s %16.6g %16.6g %14.3e\n",
			res.Algorithm, res.WeightRetained, res.Predicted, res.EstimateBias)
	}
}

// parseAlgoList resolves a comma-separated algorithm list against the
// experiments registry (the churn and loss experiments need the
// registry's join factory, not just the facade enum).
func parseAlgoList(spec string) ([]experiments.Algorithm, error) {
	var out []experiments.Algorithm
	for _, name := range strings.Split(spec, ",") {
		a, err := experiments.AlgorithmByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// runRecoveryExp prints the head-to-head table of the two recovery
// strategies: detector-driven reintegration (the node comes back with
// live state) versus checkpoint-restart (it comes back from a stale
// snapshot via sim.RestartNode).
func runRecoveryExp(g *topology.Graph, shards int, seed int64, detectTimeout float64) {
	pts, err := experiments.RecoveryComparison(experiments.RecoveryConfig{
		Graph:         g,
		Shards:        shards,
		Seed:          seed,
		DetectTimeout: detectTimeout,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recovery comparison (victim %d, outage rounds 60-100, checkpoint at 30, detector timeout %g):\n",
		g.N()/3, detectTimeout)
	fmt.Printf("  %-13s %-19s %13s %15s %13s %14s\n",
		"algorithm", "strategy", "pre-fail max", "recovery rounds", "final max", "residual mass")
	for _, pt := range pts {
		rec := fmt.Sprintf("%d", pt.RecoveryRounds)
		if pt.RecoveryRounds < 0 {
			rec = "never"
		}
		fmt.Printf("  %-13s %-19s %13.3e %15s %13.3e %14.3e\n",
			pt.Algorithm, pt.Strategy, pt.PreFailMax, rec, pt.FinalMax, pt.ResidualMass)
	}
}

// buildSilentPlan assembles the failure schedule from the CLI flags
// (silent faults plus the legacy notified ones, so they compose).
func buildSilentPlan(g *topology.Graph, silentCrash, outage, failLink, crash string) (*fault.Plan, error) {
	n := g.N()
	checkNode := func(flag, spec string, nodes ...int) error {
		for _, nd := range nodes {
			if nd < 0 || nd >= n {
				return fmt.Errorf("bad %s %q: node %d out of range [0,%d)", flag, spec, nd, n)
			}
		}
		return nil
	}
	checkEdge := func(flag, spec string, a, b int) error {
		if err := checkNode(flag, spec, a, b); err != nil {
			return err
		}
		if !g.HasEdge(a, b) {
			return fmt.Errorf("bad %s %q: %s has no edge %d-%d", flag, spec, g.Name(), a, b)
		}
		return nil
	}
	plan := fault.NewPlan()
	if silentCrash != "" {
		for _, spec := range strings.Split(silentCrash, ",") {
			parts := strings.Split(spec, ":")
			if len(parts) != 2 {
				return nil, fmt.Errorf("bad -silent-crash %q (want ROUND:NODE)", spec)
			}
			r, err1 := strconv.Atoi(parts[0])
			nd, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad -silent-crash %q", spec)
			}
			if err := checkNode("-silent-crash", spec, nd); err != nil {
				return nil, err
			}
			plan.Add(fault.SilentNodeCrash(r, nd))
		}
	}
	if outage != "" {
		for _, spec := range strings.Split(outage, ",") {
			parts := strings.Split(spec, ":")
			if len(parts) != 4 {
				return nil, fmt.Errorf("bad -outage %q (want FROM:TO:A:B)", spec)
			}
			var v [4]int
			for k, p := range parts {
				x, err := strconv.Atoi(p)
				if err != nil {
					return nil, fmt.Errorf("bad -outage %q", spec)
				}
				v[k] = x
			}
			if err := checkEdge("-outage", spec, v[2], v[3]); err != nil {
				return nil, err
			}
			plan.Add(fault.LinkOutage(v[0], v[1], v[2], v[3])...)
		}
	}
	if failLink != "" {
		for _, spec := range strings.Split(failLink, ",") {
			r, a, b, err := parse3(spec)
			if err != nil {
				return nil, fmt.Errorf("bad -faillink %q: %w", spec, err)
			}
			if err := checkEdge("-faillink", spec, a, b); err != nil {
				return nil, err
			}
			plan.Add(fault.LinkFailure(r, a, b))
		}
	}
	if crash != "" {
		for _, spec := range strings.Split(crash, ",") {
			parts := strings.Split(spec, ":")
			if len(parts) != 2 {
				return nil, fmt.Errorf("bad -crash %q (want ROUND:NODE)", spec)
			}
			r, err1 := strconv.Atoi(parts[0])
			nd, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad -crash %q", spec)
			}
			if err := checkNode("-crash", spec, nd); err != nil {
				return nil, err
			}
			plan.Add(fault.NodeCrash(r, nd))
		}
	}
	return plan, nil
}

func parsePolicy(name string) (detect.Policy, error) {
	switch strings.ToLower(name) {
	case "fixed", "fixed-timeout", "timeout":
		return detect.FixedTimeout, nil
	case "phi", "phi-accrual", "accrual":
		return detect.PhiAccrual, nil
	default:
		return 0, fmt.Errorf("unknown detection policy %q (want fixed|phi)", name)
	}
}

func parseFloats(spec string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseRange(spec string) (float64, float64, error) {
	a, b, ok := strings.Cut(spec, ",")
	if !ok {
		return 0, 0, fmt.Errorf("bad -latency %q (want MIN,MAX)", spec)
	}
	lo, err1 := strconv.ParseFloat(strings.TrimSpace(a), 64)
	hi, err2 := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad -latency %q", spec)
	}
	return lo, hi, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gossipsim:", err)
	os.Exit(1)
}

func parseAlgo(name string) (pcfreduce.Algorithm, error) {
	switch strings.ToLower(name) {
	case "pcf":
		return pcfreduce.PCF, nil
	case "pcf-robust", "pcfr":
		return pcfreduce.PCFRobust, nil
	case "pf", "pushflow":
		return pcfreduce.PushFlow, nil
	case "pushsum", "ps":
		return pcfreduce.PushSum, nil
	case "fu", "flowupdating":
		return pcfreduce.FlowUpdating, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", name)
	}
}

func parseTopo(spec string, seed int64) (*pcfreduce.Graph, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("bad topology %q (want KIND:ARGS)", spec)
	}
	atoi := func(s string) (int, error) { return strconv.Atoi(strings.TrimSpace(s)) }
	switch strings.ToLower(kind) {
	case "hypercube":
		d, err := atoi(arg)
		if err != nil {
			return nil, err
		}
		return topology.Hypercube(d), nil
	case "torus3d":
		s, err := atoi(arg)
		if err != nil {
			return nil, err
		}
		return topology.Torus3D(s, s, s), nil
	case "torus2d", "grid2d":
		a, b, ok := strings.Cut(arg, "x")
		if !ok {
			return nil, fmt.Errorf("bad %s size %q (want AxB)", kind, arg)
		}
		av, err1 := atoi(a)
		bv, err2 := atoi(b)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad %s size %q", kind, arg)
		}
		if strings.ToLower(kind) == "torus2d" {
			return topology.Torus2D(av, bv), nil
		}
		return topology.Grid2D(av, bv), nil
	case "ring":
		n, err := atoi(arg)
		if err != nil {
			return nil, err
		}
		return topology.Ring(n), nil
	case "path":
		n, err := atoi(arg)
		if err != nil {
			return nil, err
		}
		return topology.Path(n), nil
	case "complete":
		n, err := atoi(arg)
		if err != nil {
			return nil, err
		}
		return topology.Complete(n), nil
	case "randreg":
		n, d, ok := strings.Cut(arg, ",")
		if !ok {
			return nil, fmt.Errorf("bad randreg %q (want N,D)", arg)
		}
		nv, err1 := atoi(n)
		dv, err2 := atoi(d)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad randreg %q", arg)
		}
		return topology.RandomRegular(nv, dv, seed), nil
	default:
		return nil, fmt.Errorf("unknown topology kind %q", kind)
	}
}

func parse3(spec string) (int, int, int, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("want ROUND:A:B")
	}
	r, err1 := strconv.Atoi(parts[0])
	a, err2 := strconv.Atoi(parts[1])
	b, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, fmt.Errorf("non-integer field")
	}
	return r, a, b, nil
}
