package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"pcfreduce/internal/core"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// scalarWorkload is a PCF Average reduction of U[0,1) node values (the
// paper's Fig. 3 inputs), driven round by round through Engine.Step and
// Engine.Errors until the oracle max error is at most eps.
type scalarWorkload struct {
	graph     func() *topology.Graph
	eps       float64
	maxRounds int
	// failures permanent link failures (Engine.FailLink), half before
	// round failRounds[0] and half before round failRounds[1].
	failures   int
	failRounds [2]int
	// observeEvery and snapshotEvery are the cadences, in rounds, of
	// Engine.Observe and of Engine.Snapshot + checkpoint.Encode (0 = never).
	observeEvery, snapshotEvery int
	// dmgs is the factorization the traced run probes for the dmgs layer
	// metrics: the reduction itself never calls dmgs.
	dmgs *qrWorkload
}

// hc16k: large n with a high degree, no faults and no observation, so
// the per-node activate/exchange work in sim and core dominates.
var hc16k = &scalarWorkload{
	graph:     func() *topology.Graph { return topology.Hypercube(14) },
	eps:       1e-12,
	maxRounds: 4000,
	dmgs:      qr256,
}

// torus4k: the paper's link-failure recovery scenario (Figs. 4/7) with
// many cheap rounds, so per-round fixed cost, the fault path, observation
// and snapshots carry a real share of the time.
var torus4k = &scalarWorkload{
	graph:         func() *topology.Graph { return topology.Torus3D(16, 16, 16) },
	eps:           1e-12,
	maxRounds:     20000,
	failures:      8,
	failRounds:    [2]int{16, 600},
	observeEvery:  8,
	snapshotEvery: 256,
	dmgs:          qr256,
}

const (
	instances = 4 // inputs per seed in a measured run
	minPasses = 2 // solves of each instance per measured run, at least
	probes    = 8 // Observe and Snapshot+Encode probes in a traced run
	// minSetups is the number of set-ups timed per measured run, at
	// least: one set-up takes 0.5 to 50 ms, so its median needs more
	// samples than a run makes solves.
	minSetups = 25
)

// scalarInputs are the inputs generated from one seed.
type scalarInputs struct {
	seed   int64
	values []float64
	target float64          // the benchmark's own average of values
	fails  map[int][][2]int // round → links failed before it
}

func (w *scalarWorkload) inputs(seed int64) (*scalarInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	g := w.graph()
	in := &scalarInputs{seed: seed, values: make([]float64, g.N())}
	for i := range in.values {
		in.values[i] = rng.Float64()
	}
	in.target = average(in.values)
	if w.failures > 0 {
		links, err := pickLinks(g, w.failures, rng)
		if err != nil {
			return nil, err
		}
		half := w.failures / 2
		in.fails = map[int][][2]int{w.failRounds[0]: links[:half], w.failRounds[1]: links[half:]}
	}
	return in, nil
}

// pickLinks draws k distinct links of g whose joint removal leaves g
// connected, so the average of all inputs stays the reduction's target.
func pickLinks(g *topology.Graph, k int, rng *rand.Rand) ([][2]int, error) {
	for attempt := 0; attempt < 100; attempt++ {
		links := make([][2]int, 0, k)
		seen := make(map[[2]int]bool)
		cut := g
		for len(links) < k {
			a := rng.Intn(g.N())
			nb := g.Neighbors(a)
			b := int(nb[rng.Intn(len(nb))])
			key := [2]int{min(a, b), max(a, b)}
			if seen[key] {
				continue
			}
			seen[key] = true
			links = append(links, key)
			cut = cut.RemoveEdge(a, b)
		}
		if cut.IsConnected() {
			return links, nil
		}
	}
	return nil, fmt.Errorf("no %d links whose removal keeps %s connected", k, g.Name())
}

// scalarSetup is one built engine and the time each set-up step took.
type scalarSetup struct {
	eng *sim.Engine
	rec *metrics.Recorder
	pt  *topology.Partition

	build, partition, protos, engNew time.Duration
}

func (s *scalarSetup) total() time.Duration { return s.build + s.partition + s.protos + s.engNew }

// setup builds the graph, its p-shard cache-aware partition, the PCF
// protocols and the engine. timing turns the flight recorder on.
func (w *scalarWorkload) setup(in *scalarInputs, p int, timing bool, tr *tracer) *scalarSetup {
	s := &scalarSetup{}
	var g *topology.Graph
	var protos []gossip.Protocol
	s.build, _ = timed(tr, "topology.build", func() error { g = w.graph(); return nil })
	s.partition, _ = timed(tr, "topology.partition", func() error { s.pt = topology.CacheAware(g, p); return nil })
	s.protos, _ = timed(tr, "core.new", func() error {
		protos = make([]gossip.Protocol, g.N())
		for i := range protos {
			protos[i] = core.NewEfficient()
		}
		return nil
	})
	s.engNew, _ = timed(tr, "sim.new", func() error {
		s.eng = sim.NewScalar(g, protos, in.values, gossip.Average, in.seed, sim.WithPartition(s.pt))
		return nil
	})
	if w.observeEvery > 0 || timing {
		s.rec = metrics.New(metrics.Config{Shards: p, Timing: timing})
		s.eng.SetMetrics(s.rec)
	}
	return s
}

// solveStats describes one solve.
type solveStats struct {
	rounds        int
	wall          time.Duration
	roundDur      []time.Duration
	snapshotBytes int    // size of the last encoded checkpoint
	mallocs       uint64 // heap allocations during the rounds
}

// solve runs rounds until the max error is at most eps, injecting the
// link failures when faults is set, and checks the estimates.
func (w *scalarWorkload) solve(s *scalarSetup, in *scalarInputs, faults bool, tr *tracer) (solveStats, error) {
	eng := s.eng
	st := solveStats{roundDur: make([]time.Duration, 0, 2048)}
	m0, _ := memStats()
	root := tr.begin("solve")
	start := time.Now()
	prev := start
	for st.rounds == 0 {
		r := len(st.roundDur)
		if r == w.maxRounds {
			tr.end(root)
			return st, fmt.Errorf("max error above %g after %d rounds", w.eps, r)
		}
		id := tr.begin("round")
		if faults {
			for _, f := range in.fails[r] {
				fid := tr.begin("fault.fail_link")
				eng.FailLink(f[0], f[1])
				tr.end(fid)
			}
		}
		sid := tr.begin("sim.step")
		eng.Step()
		tr.end(sid)
		eid := tr.begin("sim.errors")
		worst := maxErr(eng.Errors())
		tr.end(eid)
		if w.observeEvery > 0 && (r+1)%w.observeEvery == 0 {
			oid := tr.begin("metrics.observe")
			eng.Observe()
			tr.end(oid)
		}
		if w.snapshotEvery > 0 && (r+1)%w.snapshotEvery == 0 {
			_, _, size, err := snapshotEncode(eng, tr)
			if err != nil {
				tr.end(id)
				tr.end(root)
				return st, err
			}
			st.snapshotBytes = size
		}
		tr.end(id)
		now := time.Now()
		st.roundDur = append(st.roundDur, now.Sub(prev))
		prev = now
		if worst <= w.eps {
			st.rounds = r + 1
		}
	}
	st.wall = time.Since(start)
	tr.end(root)
	m1, _ := memStats()
	st.mallocs = m1 - m0
	return st, checkEstimates(eng.Estimates(), in.target, w.eps)
}

// maxErr is the largest per-node error, NaN if any node's is NaN.
func maxErr(errs []float64) float64 {
	worst := 0.0
	for _, e := range errs {
		if math.IsNaN(e) {
			return e
		}
		worst = max(worst, e)
	}
	return worst
}

// measure solves the seed's instances in turn, each at least minPasses
// times after a warm-up solve, and goes on until the budget is spent; the deadline is checked
// per solve, so a run overshoots its budget by at most one solve. wall_s
// and rounds are sums over the instances, of the median solve wall and
// of the exact round count: summing over several inputs damps the
// round count's dependence on one seed.
func (w *scalarWorkload) measure(seed int64, budget time.Duration) (*result, error) {
	ins := make([]*scalarInputs, instances)
	for k := range ins {
		in, err := w.inputs(seed*instances + int64(k))
		if err != nil {
			return nil, err
		}
		ins[k] = in
	}
	n := float64(len(ins[0].values))
	res := newResult()
	walls := make([][]time.Duration, instances)
	rounds := make([]int, instances)
	for k := range rounds {
		rounds[k] = -1
	}
	var setups, roundDur []time.Duration
	var mems []float64
	deadline := time.Now().Add(budget)
	// Solve −1 warms up the heap, the worker pool and the caches: the
	// first solve of a process runs up to 15% slower than the rest. It is
	// checked, but its times are not kept.
	for i := -1; i < minPasses*instances || time.Now().Before(deadline); i++ {
		k := max(i, 0) % instances
		in := ins[k]
		base := liveHeap()
		s := w.setup(in, shards, false, nil)
		mem := float64(int64(liveHeap())-int64(base)) / n
		st, err := w.solve(s, in, true, nil)
		s.eng.Close()
		res.attempt(err)
		if err != nil {
			continue
		}
		res.sameRounds(&rounds[k], st.rounds)
		if i < 0 {
			continue
		}
		mems = append(mems, mem)
		setups = append(setups, s.total())
		walls[k] = append(walls[k], st.wall)
		roundDur = append(roundDur, st.roundDur...)
		fmt.Fprintf(os.Stderr, "perfbench: solve %d instance %d: %d rounds in %.4f s, set-up %.4f s\n",
			i+1, k, st.rounds, st.wall.Seconds(), s.total().Seconds())
	}
	for len(setups) < minSetups {
		runtime.GC()
		s := w.setup(ins[len(setups)%instances], shards, false, nil)
		s.eng.Close()
		setups = append(setups, s.total())
	}
	var wall time.Duration
	var sumRounds int
	for k := range ins {
		wall += median(walls[k])
		sumRounds += rounds[k]
	}
	res.set("wall_s", "s", wall.Seconds())
	res.set("rounds", "rounds", float64(sumRounds))
	res.set("round_ms_p50", "ms", ms(median(roundDur)))
	res.set("setup_s", "s", median(setups).Seconds())
	res.set("mem_bytes_per_node", "B", median(mems))
	return res, nil
}

// layerSpans are the spans of calls into the program's layers; their
// self times must cover the traced wall of a solve.
var layerSpans = []string{"sim.step", "sim.errors", "fault.fail_link", "metrics.observe", "checkpoint.snapshot", "checkpoint.encode"}

// minCoverage is the share of the traced wall the layer spans' self
// times must account for.
const minCoverage = 0.9

// trace runs the legs on the seed's first instance.
func (w *scalarWorkload) trace(seed int64, budget time.Duration, tr *tracer) (*result, error) {
	in, err := w.inputs(seed * instances)
	if err != nil {
		return nil, err
	}
	res := newResult()
	l := &layers{n: len(in.values)}
	_, pause0 := memStats()
	first := -1
	deadline := time.Now().Add(budget)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		// Untraced leg: the baseline of trace.overhead_ratio and
		// sim.parallel_efficiency.
		s := w.setup(in, shards, false, nil)
		runtime.GC()
		st, err := w.solve(s, in, true, nil)
		s.eng.Close()
		res.attempt(err)
		res.sameRounds(&first, st.rounds)
		l.untraced = append(l.untraced, st.wall)
		l.allocsPerRound = float64(st.mallocs) / float64(len(st.roundDur))

		// Traced leg.
		s = w.setup(in, shards, true, tr)
		l.build = append(l.build, s.build)
		l.partition = append(l.partition, s.partition)
		l.newEngine = append(l.newEngine, s.engNew)
		l.cutEdgeFrac = float64(s.pt.Stats.CutEdges) / float64(s.pt.Stats.TotalEdges)
		runtime.GC()
		st, err = w.solve(s, in, true, tr)
		res.attempt(err)
		res.sameRounds(&first, st.rounds)
		l.traced = append(l.traced, st.wall)
		l.rounds += len(st.roundDur)
		l.recordTiming(s.rec)
		if w.observeEvery == 0 {
			if err := l.probe(s.eng, s.rec, probes, tr); err != nil {
				return nil, err
			}
		}
		s.eng.Close()
	}

	// Single-threaded baseline: the same solve on one shard.
	s := w.setup(in, 1, false, nil)
	runtime.GC()
	st, err := w.solve(s, in, true, nil)
	s.eng.Close()
	res.attempt(err)
	res.sameRounds(&first, st.rounds)
	l.oneShard = append(l.oneShard, st.wall)

	// Failure-free baseline: the recovery cost in rounds.
	if w.failures > 0 {
		s := w.setup(in, shards, false, nil)
		st, err := w.solve(s, in, false, nil)
		s.eng.Close()
		res.attempt(err)
		l.extraRounds = first - st.rounds
	}
	_, pause1 := memStats()
	l.gcPause = pause1 - pause0

	steps, errs := tr.durations("sim.step"), tr.durations("sim.errors")
	l.stepP50, l.stepTotal = median(steps), total(steps)
	l.errsP50, l.errsTotal = median(errs), total(errs)
	l.roundP95 = quantile(tr.durations("round"), 0.95)
	self := tr.selfTimes("solve")
	var covered time.Duration
	for _, name := range layerSpans {
		covered += self[name]
	}
	l.observeTotal = self["metrics.observe"]
	if w.observeEvery > 0 {
		l.observe = tr.durations("metrics.observe")
		l.snapshot = tr.durations("checkpoint.snapshot")
		l.encode = tr.durations("checkpoint.encode")
		l.snapshotBytes = st.snapshotBytes
	}
	l.coverage = float64(covered) / float64(total(l.traced))
	if l.coverage < minCoverage {
		res.problem("layer self times cover %.3f of the traced wall, below %.2f", l.coverage, minCoverage)
	}
	l.probeDMGS(w.dmgs, seed, res, tr)
	l.report(res)
	return res, nil
}
