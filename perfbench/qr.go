package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"pcfreduce/internal/core"
	"pcfreduce/internal/dmgs"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/linalg"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// qrWorkload is batched dmGS (the paper's Sec. IV application) of seeded
// linalg.Random matrices on a hypercube: many short reductions on one
// reused engine with wide payloads at small n, so per-round fixed cost
// (pool dispatch, barriers) dominates.
type qrWorkload struct {
	dim                  int // hypercube dimension
	rows, cols, matrices int
	eps                  float64
	stall, maxRounds     int
}

var qr256 = &qrWorkload{dim: 8, rows: 256, cols: 16, matrices: 4, eps: 1e-15, stall: 60, maxRounds: 4000}

// matrixSeed derives the seed of matrix k; reduction t of its
// factorization uses schedule seed 64·matrixSeed + t (t < cols ≤ 64).
func (w *qrWorkload) matrixSeed(seed int64, k int) int64 { return seed*int64(w.matrices) + int64(k) }

func (w *qrWorkload) inputs(seed int64) []*linalg.Matrix {
	mats := make([]*linalg.Matrix, w.matrices)
	for k := range mats {
		mats[k] = linalg.Random(w.rows, w.cols, w.matrixSeed(seed, k))
	}
	return mats
}

// qrSetup is the topology, partition and one reduction engine built the
// way dmgs.Factorize builds it, with the time each step took.
type qrSetup struct {
	g   *topology.Graph
	pt  *topology.Partition
	eng *sim.Engine

	build, partition, protos, engNew time.Duration
}

func (s *qrSetup) total() time.Duration { return s.build + s.partition + s.protos + s.engNew }

// setup builds the hypercube and its p-shard partition, which the
// factorizations reuse, plus the protocols and a width-cols engine
// identical to the one dmgs.Factorize constructs for its first reduction.
func (w *qrWorkload) setup(v *linalg.Matrix, p int, tr *tracer) *qrSetup {
	s := &qrSetup{}
	var protos []gossip.Protocol
	s.build, _ = timed(tr, "topology.build", func() error { s.g = topology.Hypercube(w.dim); return nil })
	s.partition, _ = timed(tr, "topology.partition", func() error { s.pt = topology.CacheAware(s.g, p); return nil })
	s.protos, _ = timed(tr, "core.new", func() error {
		protos = make([]gossip.Protocol, s.g.N())
		for i := range protos {
			protos[i] = core.NewEfficient()
		}
		return nil
	})
	init := make([]gossip.Value, s.g.N())
	for i := range init {
		init[i] = gossip.Vector(v.Row(i), gossip.Sum.InitialWeight(i))
	}
	s.engNew, _ = timed(tr, "sim.new", func() error {
		s.eng = sim.New(s.g, protos, init, 0, sim.WithVectorScaleErrors(), sim.WithPartition(s.pt))
		return nil
	})
	return s
}

// qrStats describes one solve: every matrix factorized once.
type qrStats struct {
	rounds     int
	reductions int
	wall       time.Duration // sum of the Factorize calls
	redWall    []time.Duration
	redRounds  []int
	eng        *sim.Engine // the last factorization's engine
}

// solve factorizes every matrix on the set-up's topology and partition
// and checks each factorization. rec, when non-nil, is attached to the
// reduction engine for every reduction.
func (w *qrWorkload) solve(s *qrSetup, mats []*linalg.Matrix, seed int64, res *result, rec *metrics.Recorder, tr *tracer) qrStats {
	var st qrStats
	root := tr.begin("solve")
	for k, v := range mats {
		fid := tr.begin("dmgs.factorize")
		start := time.Now()
		last := start
		cfg := dmgs.Config{
			Topology:    s.g,
			NewProtocol: func() gossip.Protocol { return core.NewEfficient() },
			Eps:         w.eps,
			MaxRounds:   w.maxRounds,
			StallRounds: w.stall,
			Seed:        64 * w.matrixSeed(seed, k),
			Batched:     true,
			Engine:      []sim.EngineOption{sim.WithPartition(s.pt), func(e *sim.Engine) { st.eng = e }},
			OnReduction: func(_ int, r sim.Result) {
				now := time.Now()
				st.redWall = append(st.redWall, now.Sub(last))
				st.redRounds = append(st.redRounds, r.Rounds)
				tr.add("dmgs.reduction", last, now)
				last = now
			},
		}
		if rec != nil {
			// Factorize rewinds its engine before every reduction, which
			// detaches recorders; its per-reduction interceptor hook runs
			// right after the rewind, so re-attach there (installing no
			// interceptor, which would change the delivery path).
			cfg.Interceptor = func() sim.Interceptor {
				st.eng.SetMetrics(rec)
				return nil
			}
		}
		out, err := dmgs.Factorize(v, cfg)
		st.wall += time.Since(start)
		tr.end(fid)
		if err == nil {
			err = checkQR(v, out.Q, out.R)
		}
		if err != nil {
			err = fmt.Errorf("matrix %d: %w", k, err)
		}
		res.attempt(err)
		st.rounds += out.TotalRounds
		st.reductions += out.Reductions
	}
	tr.end(root)
	return st
}

// roundMs returns each reduction's wall divided by its rounds, in ms.
func (st *qrStats) roundMs() []float64 {
	out := make([]float64, len(st.redWall))
	for i, d := range st.redWall {
		out[i] = ms(d) / float64(st.redRounds[i])
	}
	return out
}

func (w *qrWorkload) measure(seed int64, budget time.Duration) (*result, error) {
	mats := w.inputs(seed)
	res := newResult()
	var walls, setups []time.Duration
	var mems, roundMs []float64
	first := -1
	deadline := time.Now().Add(budget)
	// Solve −1 is a warm-up, as in the scalar workloads.
	for rep := -1; rep < minPasses || time.Now().Before(deadline); rep++ {
		base := liveHeap()
		s := w.setup(mats[0], shards, nil)
		mem := float64(int64(liveHeap())-int64(base)) / float64(s.g.N())
		s.eng.Close()
		runtime.GC()
		st := w.solve(s, mats, seed, res, nil, nil)
		res.sameRounds(&first, st.rounds)
		if rep < 0 {
			continue
		}
		mems = append(mems, mem)
		setups = append(setups, s.total())
		walls = append(walls, st.wall)
		roundMs = append(roundMs, st.roundMs()...)
		fmt.Fprintf(os.Stderr, "perfbench: solve %d: %d rounds in %.4f s, set-up %.4f s\n", rep+1, st.rounds, st.wall.Seconds(), s.total().Seconds())
	}
	for len(setups) < minSetups {
		runtime.GC()
		s := w.setup(mats[0], shards, nil)
		s.eng.Close()
		setups = append(setups, s.total())
	}
	res.set("wall_s", "s", median(walls).Seconds())
	res.set("rounds", "rounds", float64(first))
	res.set("round_ms_p50", "ms", median(roundMs))
	res.set("setup_s", "s", median(setups).Seconds())
	res.set("mem_bytes_per_node", "B", median(mems))
	return res, nil
}

// probeDMGS factorizes w's matrices of seed once, traced, and records
// the reductions as the dmgs layer metrics. The scalar workloads run it
// after their legs, since their own solves never call dmgs.
func (l *layers) probeDMGS(w *qrWorkload, seed int64, res *result, tr *tracer) {
	mats := w.inputs(seed)
	s := w.setup(mats[0], shards, nil)
	s.eng.Close()
	runtime.GC()
	st := w.solve(s, mats, seed, res, nil, tr)
	l.reductions = st.reductions
	l.reductionWall = st.redWall
	l.reductionRnds = st.rounds
}

func (w *qrWorkload) trace(seed int64, budget time.Duration, tr *tracer) (*result, error) {
	mats := w.inputs(seed)
	res := newResult()
	l := &layers{n: 1 << w.dim}
	_, pause0 := memStats()
	first := -1
	deadline := time.Now().Add(budget)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		// Untraced leg: the baseline of trace.overhead_ratio and
		// sim.parallel_efficiency.
		s := w.setup(mats[0], shards, nil)
		s.eng.Close()
		runtime.GC()
		m0, _ := memStats()
		st := w.solve(s, mats, seed, res, nil, nil)
		m1, _ := memStats()
		res.sameRounds(&first, st.rounds)
		l.untraced = append(l.untraced, st.wall)
		l.allocsPerRound = float64(m1-m0) / float64(st.rounds)

		// Traced leg, with the flight recorder on the reduction engine.
		s = w.setup(mats[0], shards, tr)
		s.eng.Close()
		l.build = append(l.build, s.build)
		l.partition = append(l.partition, s.partition)
		l.newEngine = append(l.newEngine, s.engNew)
		l.cutEdgeFrac = float64(s.pt.Stats.CutEdges) / float64(s.pt.Stats.TotalEdges)
		rec := metrics.New(metrics.Config{Shards: shards, Interval: 1 << 30, Timing: true})
		runtime.GC()
		st = w.solve(s, mats, seed, res, rec, tr)
		res.sameRounds(&first, st.rounds)
		l.traced = append(l.traced, st.wall)
		l.rounds += st.rounds
		l.reductions = st.reductions
		l.reductionWall = append(l.reductionWall, st.redWall...)
		l.reductionRnds += st.rounds
		l.recordTiming(rec)
		if err := l.probe(st.eng, rec, probes, tr); err != nil {
			return nil, err
		}
	}

	// Single-threaded baseline: the same factorizations on one shard.
	s := w.setup(mats[0], 1, nil)
	s.eng.Close()
	runtime.GC()
	st := w.solve(s, mats, seed, res, nil, nil)
	res.sameRounds(&first, st.rounds)
	l.oneShard = append(l.oneShard, st.wall)
	_, pause1 := memStats()
	l.gcPause = pause1 - pause0

	// The rounds run inside dmgs.Factorize, out of the benchmark's reach,
	// so the round-level numbers come from the flight recorder.
	round, errs := l.timing.Hist(metrics.PhaseRound), l.timing.Hist(metrics.PhaseWallErrors)
	l.stepP50, l.stepTotal = time.Duration(round.Quantile(0.5)), time.Duration(round.SumNs)
	l.errsP50, l.errsTotal = time.Duration(errs.Quantile(0.5)), time.Duration(errs.SumNs)
	l.roundP95 = time.Duration(round.Quantile(0.95))
	l.coverage = float64(tr.selfTimes("solve")["dmgs.reduction"]) / float64(total(l.traced))
	l.report(res)
	return res, nil
}
