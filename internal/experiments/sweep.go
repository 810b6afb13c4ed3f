package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"pcfreduce/internal/checkpoint"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

// SweepTopology names one topology of a sweep grid.
type SweepTopology struct {
	Name  string
	Graph *topology.Graph
}

// SweepPlan names one fault schedule of a sweep grid. An empty event list
// is the fault-free baseline. Plans are applied read-only, so one plan
// may be shared by concurrent trials.
type SweepPlan struct {
	Name   string
	Events []fault.Event
}

// SweepConfig parameterizes a (topology × algorithm × fault-plan × seed)
// experiment grid executed by Sweep.
//
// Determinism contract: every trial's schedule seed is derived purely
// from RootSeed and the trial's position in the grid (splitmix64 over the
// flattened trial index), and each node's initial inputs depend only on
// RootSeed and the topology — never on which worker runs the trial or in
// what order. Results are written into a slice indexed by the same
// flattened position. A sweep with Workers=8 is therefore bit-identical
// to the same sweep with Workers=1.
type SweepConfig struct {
	// Topologies, Algorithms and Plans span the grid (all required
	// non-empty except Plans, which defaults to a single fault-free plan).
	Topologies []SweepTopology
	Algorithms []Algorithm
	Plans      []SweepPlan
	// Trials is the number of schedule seeds per grid cell (default 1).
	Trials int
	// RootSeed is the single seed from which all per-trial seeds and all
	// per-topology inputs are derived.
	RootSeed int64
	// MaxRounds bounds each trial (default 200); Eps, when > 0, stops a
	// trial early at the oracle error target.
	MaxRounds int
	Eps       float64
	// Record stores the full per-round error series of every trial
	// instead of only the final point.
	Record bool
	// Workers is the worker-pool size; 0 picks a budget automatically:
	// GOMAXPROCS without shards, max(1, GOMAXPROCS/Shards) with them, so
	// nested parallelism never oversubscribes by default.
	Workers int
	// Shards, when > 0, runs every trial on the sharded executor
	// (sim.WithShards) with that many shards. The sharded executor has
	// its own deterministic schedule — byte-identical across shard
	// counts but distinct from the default sequential model — so golden
	// files recorded with Shards=0 stay valid only at Shards=0.
	Shards int
	// Metrics attaches one fresh metrics.Recorder per trial and stores
	// its sample history and event trace in the trial result. Metrics
	// never perturb the schedule: a sweep with Metrics on produces
	// byte-identical results (minus the metrics fields themselves) to
	// the same sweep with Metrics off (enforced by
	// TestSweepMetricsTransparent).
	Metrics bool
	// MetricsEvery is the sampling cadence in rounds (default 10).
	MetricsEvery int
	// Timing additionally enables the flight recorder on each trial's
	// recorder (requires Metrics): per-phase duration summaries land in
	// TrialResult.PhaseStats. Timings are wall-clock and therefore not
	// deterministic — differential comparisons must strip PhaseStats
	// alongside Metrics/Events — but like Metrics the recording itself
	// never perturbs the schedule (TestSweepTimingTransparent).
	Timing bool
	// CheckpointDir, when non-empty, makes the sweep durable: every
	// finished trial is written atomically to trial_NNNNN.json in the
	// directory (created if missing), and — when CheckpointEvery > 0
	// and the trials run sharded — a mid-trial engine checkpoint goes
	// to trial_NNNNN.ckpt every CheckpointEvery rounds and is removed
	// once the trial finishes. A killed sweep leaves only complete
	// artifacts behind (writes are write-temp-then-rename).
	CheckpointDir string
	// CheckpointEvery is the mid-trial checkpoint cadence in rounds
	// (0 disables mid-trial checkpoints; trial-level durability alone
	// still allows resuming at trial granularity).
	CheckpointEvery int
	// Resume skips trials whose trial_NNNNN.json already exists in
	// CheckpointDir (loading the recorded result verbatim) and restores
	// mid-trial .ckpt state for trials that were interrupted mid-run.
	// Because trial JSON round-trips float64 exactly and a restored
	// engine continues bit-identically, the resumed sweep's JSON is
	// byte-identical to an uninterrupted run's. Requires CheckpointDir;
	// not supported together with Metrics (recorder history is not
	// checkpointable).
	Resume bool

	// interruptAfter, when > 0, makes the sweep stop executing new
	// trials after that many have completed in this process — the
	// crash-injection hook of the kill-and-resume test. Unexported:
	// only tests can reach it.
	interruptAfter int
}

// Validate checks the nested-parallelism budget the same way
// runtime.Config is validated at construction: an explicit Workers ×
// Shards product must not exceed GOMAXPROCS, because each sweep worker
// would fan out into Shards goroutines of its own and the grid would
// oversubscribe the machine. Leave Workers at 0 to have Sweep budget
// the pool automatically.
func (c SweepConfig) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("experiments: SweepConfig.Workers is %d, want ≥ 0", c.Workers)
	}
	if c.Shards < 0 {
		return fmt.Errorf("experiments: SweepConfig.Shards is %d, want ≥ 0", c.Shards)
	}
	if procs := runtime.GOMAXPROCS(0); c.Workers > 0 && c.Shards > 0 && c.Workers*c.Shards > procs {
		return fmt.Errorf(
			"experiments: SweepConfig runs %d workers × %d shards = %d goroutines, more than GOMAXPROCS=%d; lower one of them or leave Workers at 0 to budget automatically",
			c.Workers, c.Shards, c.Workers*c.Shards, procs)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("experiments: SweepConfig.CheckpointEvery is %d, want ≥ 0", c.CheckpointEvery)
	}
	if c.Resume && c.CheckpointDir == "" {
		return fmt.Errorf("experiments: SweepConfig.Resume requires CheckpointDir")
	}
	if c.Resume && c.Metrics {
		return fmt.Errorf("experiments: SweepConfig.Resume is not supported together with Metrics (recorder history is not checkpointable)")
	}
	if c.Timing && !c.Metrics {
		return fmt.Errorf("experiments: SweepConfig.Timing requires Metrics (phase stats are harvested from the trial recorder)")
	}
	return nil
}

func (c SweepConfig) normalized() SweepConfig {
	if len(c.Topologies) == 0 || len(c.Algorithms) == 0 {
		panic("experiments: Sweep needs at least one topology and one algorithm")
	}
	if len(c.Plans) == 0 {
		c.Plans = []SweepPlan{{Name: "none"}}
	}
	if c.Trials <= 0 {
		c.Trials = 1
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 200
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Shards > 0 {
			c.Workers = max(1, runtime.GOMAXPROCS(0)/c.Shards)
		}
	}
	if c.MetricsEvery <= 0 {
		c.MetricsEvery = 10
	}
	return c
}

// TrialResult is the outcome of one grid trial.
type TrialResult struct {
	Topology  string `json:"topology"`
	N         int    `json:"n"`
	Algorithm string `json:"algorithm"`
	Plan      string `json:"plan"`
	Trial     int    `json:"trial"`
	Seed      int64  `json:"seed"`

	Rounds      int     `json:"rounds"`
	Converged   bool    `json:"converged"`
	FinalMax    float64 `json:"final_max"`
	FinalMedian float64 `json:"final_median"`

	// Series is present only under SweepConfig.Record.
	Series stats.Series `json:"series,omitempty"`

	// Metrics and Events are present only under SweepConfig.Metrics: the
	// trial's per-interval invariant samples and its fault/detector event
	// trace.
	Metrics []metrics.Sample `json:"metrics,omitempty"`
	Events  []metrics.Event  `json:"events,omitempty"`

	// PhaseStats is present only under SweepConfig.Timing: the trial's
	// merged per-phase duration summaries. Wall-clock, so inherently
	// nondeterministic — strip before byte comparisons.
	PhaseStats []metrics.PhaseStat `json:"phase_stats,omitempty"`
}

// SweepResult is the full grid outcome, in flattened grid order
// (topology-major, then algorithm, plan, trial).
type SweepResult struct {
	RootSeed int64         `json:"root_seed"`
	Trials   []TrialResult `json:"trials"`
}

// JSON renders the result deterministically (stable field and trial
// order) for golden files and cross-worker-count comparisons.
func (r SweepResult) JSON() []byte {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("experiments: sweep result not serializable: %v", err))
	}
	return append(out, '\n')
}

// deriveSeed is splitmix64 over (root, stream): independent,
// well-distributed 64-bit seeds for each flattened trial index, so that
// neighboring trial indices (and the input streams, which use a disjoint
// stream tag) never share RNG state.
func deriveSeed(root int64, stream uint64) int64 {
	z := uint64(root) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// inputStreamTag separates the per-topology input seeds from the
// per-trial schedule seeds in the deriveSeed stream space.
const inputStreamTag = uint64(1) << 63

// Sweep runs the full grid on a pool of Workers goroutines and returns
// the per-trial results in deterministic grid order. It fails only on
// an invalid configuration (see SweepConfig.Validate).
//
// Each worker keeps one engine per (topology, algorithm) cell and rewinds
// it with Engine.Reset between trials, so the steady-state sweep does not
// reconstruct engines; Engine.Reset's bit-identical-to-fresh guarantee
// (see TestResetReproducesFresh) is what makes this reuse invisible in
// the results.
func Sweep(cfg SweepConfig) (SweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return SweepResult{}, err
	}
	cfg = cfg.normalized()

	inputs := make([][]float64, len(cfg.Topologies))
	for ti, tp := range cfg.Topologies {
		inputs[ti] = UniformInputs(tp.Graph.N(), deriveSeed(cfg.RootSeed, inputStreamTag|uint64(ti)))
	}
	plans := make([]*fault.Plan, len(cfg.Plans))
	for pi, p := range cfg.Plans {
		plans[pi] = fault.NewPlan(p.Events...)
	}

	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return SweepResult{}, fmt.Errorf("experiments: creating checkpoint dir: %w", err)
		}
	}

	type job struct{ ti, ai, pi, trial, idx int }
	total := len(cfg.Topologies) * len(cfg.Algorithms) * len(cfg.Plans) * cfg.Trials
	results := make([]TrialResult, total)

	// completed counts trials finished by this process; once it reaches
	// interruptAfter the remaining jobs are drained without running —
	// the simulated mid-sweep crash of the kill-and-resume test.
	var completed atomic.Int64
	interrupted := func() bool {
		return cfg.interruptAfter > 0 && completed.Load() >= int64(cfg.interruptAfter)
	}

	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			engines := make(map[int]*sim.Engine) // worker-local cell cache
			defer func() {
				for _, e := range engines {
					e.Close()
				}
			}()
			for jb := range jobs {
				var donePath, ckptPath string
				if cfg.CheckpointDir != "" {
					donePath = filepath.Join(cfg.CheckpointDir, fmt.Sprintf("trial_%05d.json", jb.idx))
					ckptPath = filepath.Join(cfg.CheckpointDir, fmt.Sprintf("trial_%05d.ckpt", jb.idx))
				}
				if cfg.Resume {
					// A finished trial's JSON is reused verbatim; an
					// unreadable or corrupt file just means the trial
					// reruns from its seed (or its mid-trial checkpoint).
					if tr, err := readTrialResult(donePath); err == nil {
						results[jb.idx] = tr
						continue
					}
				}
				if interrupted() {
					continue
				}
				seed := deriveSeed(cfg.RootSeed, uint64(jb.idx))
				cell := jb.ti*len(cfg.Algorithms) + jb.ai
				e, ok := engines[cell]
				if ok {
					e.Reset(seed)
				} else {
					tp := cfg.Topologies[jb.ti]
					e = newEngine(tp.Graph, cfg.Algorithms[jb.ai].Protos(tp.Graph.N()), inputs[jb.ti], seed,
						engineSpec{shards: cfg.Shards})
					engines[cell] = e
				}
				var resume *sim.RunState
				if cfg.Resume && ckptPath != "" {
					if ck, err := checkpoint.ReadFile(ckptPath); err == nil && ck.Run != nil {
						if err := e.Restore(ck.Snap); err == nil {
							resume = ck.Run
						} else {
							// Restore left the engine unspecified; rewind
							// to a fresh trial from the seed.
							e.Reset(seed)
						}
					}
				}
				var rec *metrics.Recorder
				if cfg.Metrics {
					rec = metrics.New(metrics.Config{
						Shards:   max(1, cfg.Shards),
						Interval: cfg.MetricsEvery,
						Timing:   cfg.Timing,
					})
					e.SetMetrics(rec)
				}
				runCfg := sim.RunConfig{
					MaxRounds: cfg.MaxRounds,
					Eps:       cfg.Eps,
					Record:    cfg.Record,
					OnRound:   plans[jb.pi].OnRound,
					Resume:    resume,
				}
				if cfg.CheckpointEvery > 0 && ckptPath != "" && rec == nil {
					runCfg.CheckpointEvery = cfg.CheckpointEvery
					runCfg.OnCheckpoint = func(e *sim.Engine, rs sim.RunState) {
						snap, err := e.Snapshot()
						if err != nil {
							return // sequential executor: trial-level durability only
						}
						_ = checkpoint.WriteFile(ckptPath, &checkpoint.Checkpoint{Snap: snap, Run: &rs})
					}
				}
				res := e.Run(runCfg)
				tr := TrialResult{
					Topology:  cfg.Topologies[jb.ti].Name,
					N:         cfg.Topologies[jb.ti].Graph.N(),
					Algorithm: cfg.Algorithms[jb.ai].Name,
					Plan:      cfg.Plans[jb.pi].Name,
					Trial:     jb.trial,
					Seed:      seed,
					Rounds:    res.Rounds,
					Converged: res.Converged,
				}
				if len(res.Series) > 0 {
					last := res.Series[len(res.Series)-1]
					tr.FinalMax, tr.FinalMedian = last.Max, last.Median
				}
				if cfg.Record {
					tr.Series = res.Series
				}
				if rec != nil {
					tr.Metrics = rec.History()
					tr.Events = rec.Events()
					tr.PhaseStats = rec.PhaseStats()
				}
				results[jb.idx] = tr
				if donePath != "" {
					_ = writeTrialResult(donePath, tr)
					if ckptPath != "" {
						os.Remove(ckptPath)
					}
				}
				completed.Add(1)
			}
		}()
	}

	idx := 0
	for ti := range cfg.Topologies {
		for ai := range cfg.Algorithms {
			for pi := range cfg.Plans {
				for trial := 0; trial < cfg.Trials; trial++ {
					jobs <- job{ti, ai, pi, trial, idx}
					idx++
				}
			}
		}
	}
	close(jobs)
	wg.Wait()
	return SweepResult{RootSeed: cfg.RootSeed, Trials: results}, nil
}

// writeTrialResult persists one finished trial atomically
// (write-temp-then-rename, same discipline as checkpoint.WriteFile), so
// a sweep killed mid-write never leaves a half-written done-file for
// -resume to trip over. encoding/json prints float64 in shortest
// round-trip form, so a reloaded trial is bit-identical to the
// original — the resumed sweep's aggregate JSON matches an
// uninterrupted run byte for byte.
func writeTrialResult(path string, tr TrialResult) error {
	data, err := json.Marshal(tr)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func readTrialResult(path string) (TrialResult, error) {
	var tr TrialResult
	if path == "" {
		return tr, os.ErrNotExist
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return tr, err
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return tr, err
	}
	return tr, nil
}

// DefaultSweep is the standard small grid: the paper's three topology
// families at n = 64, all algorithms, fault-free plus one notified link
// failure, three schedule seeds per cell.
func DefaultSweep() SweepConfig {
	return SweepConfig{
		Topologies: []SweepTopology{
			{Name: "bus64", Graph: topology.Path(64)},
			{Name: "torus3d-4x4x4", Graph: topology.Torus3D(4, 4, 4)},
			{Name: "hypercube6", Graph: topology.Hypercube(6)},
		},
		Algorithms: []Algorithm{PushSum, PushFlow, PCF, PCFRobust, FlowUpdating},
		Plans: []SweepPlan{
			{Name: "none"},
			{Name: "linkfail@40", Events: []fault.Event{fault.LinkFailure(40, 0, 1)}},
		},
		Trials:    3,
		RootSeed:  1,
		MaxRounds: 150,
	}
}
