package experiments

import (
	"fmt"

	"pcfreduce/internal/detect"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// DetectionConfig parameterizes the detection-latency / false-positive
// sweep.
type DetectionConfig struct {
	// Graph is the gossip topology (required).
	Graph *topology.Graph
	// Algo is the reduction algorithm under the detector (default PCF).
	Algo Algorithm
	// Policy selects the suspicion rule swept over Params.
	Policy detect.Policy
	// Params is the sweep axis: silence timeouts in rounds for
	// FixedTimeout, φ thresholds for PhiAccrual (required, non-empty).
	Params []float64
	// BootstrapTimeout is the PhiAccrual warm-up timeout in rounds
	// (default 60; unused by FixedTimeout, which takes its timeout from
	// Params).
	BootstrapTimeout float64
	// CrashRound is the round at which the victim, node n/3, silently
	// crashes (default 120 — past the φ warm-up).
	CrashRound int
	// ObserveRounds is how long the run continues after the crash
	// (default 600).
	ObserveRounds int
	// Trials is the number of seeds averaged per point (default 5).
	Trials int
	// Seed is the base seed; trial t uses Seed+t (default 1).
	Seed int64
}

func (c DetectionConfig) withDefaults() DetectionConfig {
	if c.Algo.New == nil {
		c.Algo = PCF
	}
	if c.BootstrapTimeout == 0 {
		c.BootstrapTimeout = 60
	}
	if c.CrashRound == 0 {
		c.CrashRound = 120
	}
	if c.ObserveRounds == 0 {
		c.ObserveRounds = 600
	}
	if c.Trials == 0 {
		c.Trials = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// DetectionPoint is one parameter setting of the sweep, averaged over
// trials.
type DetectionPoint struct {
	// Policy and Param identify the detector setting (Param is a timeout
	// in rounds for FixedTimeout, a φ threshold for PhiAccrual).
	Policy detect.Policy
	Param  float64
	// MeanLatency is the mean over trials of the FULL-detection latency:
	// rounds from the crash until the last neighbor suspects the victim.
	MeanLatency float64
	// MaxLatency is the worst such latency over all trials.
	MaxLatency int
	// FalsePositives is the mean number of suspicion events per trial
	// that did NOT target the crashed victim — false alarms raised by
	// ordinary schedule variance (each may later heal by reintegration).
	FalsePositives float64
	// Reintegrations is the mean number of healed suspicions per trial.
	Reintegrations float64
	// Missed counts trials in which some neighbor never suspected the
	// victim within the observation window.
	Missed int
}

// DetectionTradeoff is EXP-L — the failure-detection trade-off. The
// oracle-free detection layer (internal/detect) replaces the paper's
// assumed failure notifications with suspicion from silence, which buys
// deployability at the price of a tunable trade-off: an aggressive
// policy detects a silent crash quickly but raises false suspicions
// under ordinary scheduling variance (a gossip link on a degree-d node
// is naturally silent for ~d rounds between data pushes), while a
// conservative policy avoids false alarms but lets neighbors keep
// pushing mass into dead links for longer. The sweep measures both sides
// of that curve — full-neighborhood detection latency and false-alarm
// count — for either suspicion policy on the deterministic round
// simulator, so every point is exactly reproducible.
func DetectionTradeoff(cfg DetectionConfig) ([]DetectionPoint, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("experiments: DetectionConfig.Graph is required")
	}
	cfg = cfg.withDefaults()
	if len(cfg.Params) == 0 {
		return nil, fmt.Errorf("experiments: DetectionConfig.Params is empty")
	}
	victim := cfg.Graph.N() / 3
	out := make([]DetectionPoint, 0, len(cfg.Params))
	for _, param := range cfg.Params {
		dc := detect.Config{Policy: cfg.Policy}
		switch cfg.Policy {
		case detect.FixedTimeout:
			dc.Timeout = param
		case detect.PhiAccrual:
			dc.Timeout = cfg.BootstrapTimeout
			dc.PhiThreshold = param
		default:
			return nil, fmt.Errorf("experiments: unknown detection policy %v", cfg.Policy)
		}
		pt := DetectionPoint{Policy: cfg.Policy, Param: param}
		neighbors := cfg.Graph.Neighbors(victim)
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := cfg.Seed + int64(trial)
			inputs := UniformInputs(cfg.Graph.N(), seed)
			e := newEngine(cfg.Graph, cfg.Algo.Protos(cfg.Graph.N()), inputs, seed, engineSpec{},
				sim.WithDetector(dc))
			detectedAt := make(map[int]int, len(neighbors))
			e.Run(sim.RunConfig{
				MaxRounds: cfg.CrashRound + cfg.ObserveRounds,
				OnRound: func(e *sim.Engine, round int) {
					if round == cfg.CrashRound {
						e.CrashNodeSilent(victim)
					}
					if round <= cfg.CrashRound {
						return
					}
					for _, j32 := range neighbors {
						j := int(j32)
						if _, seen := detectedAt[j]; seen {
							continue
						}
						for _, s := range e.Suspects(j) {
							if s == victim {
								detectedAt[j] = round
								break
							}
						}
					}
				},
			})
			worst := 0
			for _, j := range neighbors {
				r, ok := detectedAt[int(j)]
				if !ok {
					pt.Missed++
					worst = cfg.ObserveRounds
					break
				}
				if lat := r - cfg.CrashRound; lat > worst {
					worst = lat
				}
			}
			pt.MeanLatency += float64(worst)
			if worst > pt.MaxLatency {
				pt.MaxLatency = worst
			}
			st := e.DetectorStats()
			// Every suspicion of the victim by a neighbor is a true
			// detection (the victim never reintegrates); everything else
			// is a false alarm.
			pt.FalsePositives += float64(st.Suspicions - len(detectedAt))
			pt.Reintegrations += float64(st.Reintegrations)
		}
		pt.MeanLatency /= float64(cfg.Trials)
		pt.FalsePositives /= float64(cfg.Trials)
		pt.Reintegrations /= float64(cfg.Trials)
		out = append(out, pt)
	}
	return out, nil
}
