package experiments

import (
	"fmt"

	"pcfreduce/internal/detect"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// RecoveryConfig parameterizes the head-to-head comparison of the two
// node-recovery strategies the simulator supports:
//
//   - "reintegration" (PR 1): the node goes dark (NodeHang) and later
//     resumes with its state intact; neighbor detectors evict it during
//     the outage — conserving its mass share — and reintegrate it when
//     its traffic resumes.
//
//   - "checkpoint-restart" (this PR): the node checkpoints its protocol
//     state at CheckpointRound, silently crashes at FailRound losing
//     everything since, and restarts at RecoverRound from the checkpoint
//     (sim.RestartNode); its first sends are the snapshot-restore
//     handshake that makes neighbors reintegrate it.
//
// Both strategies face the same detector configuration and the same
// outage window [FailRound, RecoverRound), so the comparison isolates
// what the node comes back WITH: live state versus a stale snapshot.
type RecoveryConfig struct {
	// Graph is the gossip topology (required).
	Graph *topology.Graph
	// Algorithms to compare (default: the full registry).
	Algorithms []Algorithm
	// CheckpointRound is when the victim snapshots its state (default 30).
	CheckpointRound int
	// FailRound is when the victim goes dark (default 60).
	FailRound int
	// RecoverRound is when the victim comes back (default 100).
	RecoverRound int
	// Node is the victim (default n/3).
	Node int
	// MaxRounds bounds each run (default 400).
	MaxRounds int
	// Shards selects the sharded executor (default 1; the snapshot layer
	// requires it).
	Shards int
	// DetectTimeout is the fixed-timeout detector setting in rounds
	// (default 30).
	DetectTimeout float64
	// Seed drives inputs and schedule (default 1).
	Seed int64
}

func (c RecoveryConfig) withDefaults() RecoveryConfig {
	if len(c.Algorithms) == 0 {
		c.Algorithms = []Algorithm{PushSum, PushFlow, PCF, PCFRobust, FlowUpdating}
	}
	if c.CheckpointRound == 0 {
		c.CheckpointRound = 30
	}
	if c.FailRound == 0 {
		c.FailRound = 60
	}
	if c.RecoverRound == 0 {
		c.RecoverRound = 100
	}
	if c.Node == 0 {
		c.Node = c.Graph.N() / 3
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 400
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.DetectTimeout == 0 {
		c.DetectTimeout = 30
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// RecoveryPoint is one (algorithm, strategy) cell of the comparison.
type RecoveryPoint struct {
	Algorithm string
	// Strategy is "reintegration" or "checkpoint-restart".
	Strategy string
	// PreFailMax is the max oracle error just before the outage — the
	// accuracy bar the run must re-reach to count as recovered.
	PreFailMax float64
	// RecoveryRounds is the number of rounds after RecoverRound until
	// the max error is back at or below PreFailMax; −1 if it never
	// recovers within MaxRounds.
	RecoveryRounds int
	// FinalMax is the max oracle error at the end of the run.
	FinalMax float64
	// ResidualMass is the final mass-conservation residual (the ratio
	// invariant of internal/metrics; NaN-free for flow algorithms, may
	// drift for push-sum).
	ResidualMass float64
}

// RecoveryComparison runs every algorithm under both recovery strategies
// and reports accuracy after recovery, rounds to re-reach pre-failure
// accuracy, and the residual mass error. Deterministic given the config.
func RecoveryComparison(cfg RecoveryConfig) ([]RecoveryPoint, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("experiments: RecoveryConfig.Graph is required")
	}
	cfg = cfg.withDefaults()
	if cfg.Node < 0 || cfg.Node >= cfg.Graph.N() {
		return nil, fmt.Errorf("experiments: recovery victim %d out of range", cfg.Node)
	}
	if !(cfg.CheckpointRound < cfg.FailRound && cfg.FailRound < cfg.RecoverRound && cfg.RecoverRound < cfg.MaxRounds) {
		return nil, fmt.Errorf("experiments: need CheckpointRound < FailRound < RecoverRound < MaxRounds, got %d/%d/%d/%d",
			cfg.CheckpointRound, cfg.FailRound, cfg.RecoverRound, cfg.MaxRounds)
	}
	strategies := []struct {
		name   string
		events []fault.Event
	}{
		{"reintegration", fault.NodeOutage(cfg.FailRound, cfg.RecoverRound, cfg.Node)},
		{"checkpoint-restart", append(
			[]fault.Event{fault.NodeCheckpoint(cfg.CheckpointRound, cfg.Node)},
			fault.CrashRestart(cfg.FailRound, cfg.RecoverRound, cfg.Node)...)},
	}
	out := make([]RecoveryPoint, 0, 2*len(cfg.Algorithms))
	for _, algo := range cfg.Algorithms {
		for _, st := range strategies {
			inputs := UniformInputs(cfg.Graph.N(), cfg.Seed)
			e := newEngine(cfg.Graph, algo.Protos(cfg.Graph.N()), inputs, cfg.Seed, engineSpec{shards: cfg.Shards},
				sim.WithDetector(detect.Config{Timeout: cfg.DetectTimeout}))
			rec := metrics.New(metrics.Config{Shards: cfg.Shards, Interval: cfg.MaxRounds + 1})
			e.SetMetrics(rec)
			plan := fault.NewPlan(st.events...)
			pt := RecoveryPoint{Algorithm: algo.Name, Strategy: st.name, RecoveryRounds: -1}
			e.Run(sim.RunConfig{
				MaxRounds: cfg.MaxRounds,
				OnRound: func(e *sim.Engine, round int) {
					if round == cfg.FailRound {
						// Measured before the plan pulls the node down.
						pt.PreFailMax = e.MaxError()
					}
					plan.OnRound(e, round)
					if round > cfg.RecoverRound && pt.RecoveryRounds < 0 && e.MaxError() <= pt.PreFailMax {
						pt.RecoveryRounds = round - cfg.RecoverRound
					}
				},
			})
			pt.FinalMax = e.MaxError()
			e.Observe()
			e.Close()
			if s, ok := rec.Last(); ok {
				pt.ResidualMass = float64(s.MassResidual)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}
