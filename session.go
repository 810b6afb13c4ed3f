package pcfreduce

import (
	"math"

	"pcfreduce/internal/gossip"
	"pcfreduce/internal/sim"
)

// Session is a stateful, incrementally driven reduction: step the gossip
// forward, update inputs while it runs (live monitoring), and inject
// failures interactively. Reduce is the one-shot convenience wrapper;
// Session is for long-lived aggregations whose inputs keep changing —
// the use case of continuously monitoring a drifting quantity.
//
// Sessions are not safe for concurrent use.
type Session struct {
	engine *sim.Engine
	agg    Aggregate
}

// SessionOptions configures NewSession.
type SessionOptions struct {
	// Topology is the gossip network (required, connected).
	Topology *Graph
	// Aggregate selects Sum or Average (default Average).
	Aggregate Aggregate
	// Seed makes the schedule reproducible (default 1).
	Seed int64
	// LossRate, when > 0, drops each message independently with this
	// probability for the whole session; it must lie in [0, 1].
	LossRate float64
}

// NewSession builds a session with the given per-node inputs. Its
// engine comes from the builder Reduce uses, so the options apply by
// construction and invalid ones are rejected alike; a session always
// runs the sequential model, as Reduce does with Shards 0.
func NewSession(inputs []float64, algo Algorithm, opt SessionOptions) (*Session, error) {
	e, err := build(algo, &ReduceOptions{
		Topology:  opt.Topology,
		Aggregate: opt.Aggregate,
		Seed:      opt.Seed,
		LossRate:  opt.LossRate,
	}, len(inputs), scalars(inputs, opt.Aggregate))
	if err != nil {
		return nil, err
	}
	return &Session{engine: e, agg: opt.Aggregate}, nil
}

// Step advances the gossip by the given number of rounds.
func (s *Session) Step(rounds int) {
	for r := 0; r < rounds; r++ {
		s.engine.Step()
	}
}

// StepUntil advances until the maximal relative local error is ≤ eps or
// maxRounds more rounds have run; it reports whether eps was reached.
func (s *Session) StepUntil(eps float64, maxRounds int) bool {
	res := s.engine.Run(sim.RunConfig{MaxRounds: maxRounds, Eps: eps})
	return res.Converged
}

// UpdateInput changes node i's input value mid-run. The network
// re-converges to the new aggregate; the exact target (Exact) moves
// immediately. The algorithm must support dynamic inputs (all built-in
// algorithms do).
func (s *Session) UpdateInput(node int, value float64) {
	s.engine.UpdateInput(node, gossip.Scalar(value, s.agg.InitialWeight(node)))
}

// FailLink permanently fails the link between a and b (quiescent model:
// in-flight messages are delivered first).
func (s *Session) FailLink(a, b int) { s.engine.FailLink(a, b) }

// CrashNode permanently removes a node; Exact becomes the survivors'
// aggregate.
func (s *Session) CrashNode(node int) { s.engine.CrashNode(node) }

// Estimates returns every node's current estimate (NaN for crashed
// nodes).
func (s *Session) Estimates() []float64 {
	out := make([]float64, 0, s.engine.N())
	for _, est := range s.engine.Estimates() {
		if est == nil {
			out = append(out, math.NaN())
			continue
		}
		out = append(out, est[0])
	}
	return out
}

// Exact returns the current true aggregate (it moves when inputs change
// or nodes crash).
func (s *Session) Exact() float64 { return s.engine.Targets()[0] }

// MaxError returns the current maximal relative local error.
func (s *Session) MaxError() float64 { return s.engine.MaxError() }

// Rounds returns the number of rounds executed so far.
func (s *Session) Rounds() int { return s.engine.Round() }
