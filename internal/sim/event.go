package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"pcfreduce/internal/gossip"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

// EventEngine is the continuous-time counterpart of Engine: nodes
// activate at independent jittered intervals and every message takes an
// independently drawn latency, so deliveries interleave arbitrarily and
// — when the latency spread exceeds the activation interval — arrive
// out of order per link. It is the deterministic instrument for
// studying the protocols' behavior under asynchrony and non-FIFO
// transport (PCF's hard-resync path; see the core package docs), sitting
// between the synchronized round Engine and the goroutine runtime.
//
// Time is unitless; only the ratios of MeanInterval to the latency
// bounds matter.
type EventEngine struct {
	graph  *topology.Graph
	protos []gossip.Protocol
	init   []gossip.Value
	rng    *rand.Rand
	cfg    EventConfig

	queue   eventQueue
	seq     uint64
	now     float64
	targets []float64
	errBuf  []float64
	// Sends counts messages dispatched; Activations counts node ticks.
	Sends, Activations int
}

// EventConfig parameterizes an EventEngine.
type EventConfig struct {
	// MeanInterval is the average time between a node's consecutive
	// activations (required, > 0).
	MeanInterval float64
	// IntervalJitter is the relative uniform jitter on activation
	// intervals, in [0, 1): an interval is drawn uniformly from
	// MeanInterval·[1−j, 1+j].
	IntervalJitter float64
	// LatencyMin/LatencyMax bound the uniform per-message latency.
	// LatencyMax > MeanInterval produces per-link reordering.
	LatencyMin, LatencyMax float64
	// Seed drives all draws.
	Seed int64
}

type event struct {
	at   float64
	seq  uint64 // FIFO tie-break for determinism
	node int    // activation when msg == nil
	msg  *gossip.Message
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// NewEvent creates a continuous-time engine over graph g.
func NewEvent(g *topology.Graph, protos []gossip.Protocol, init []gossip.Value, cfg EventConfig) *EventEngine {
	n := g.N()
	if len(protos) != n || len(init) != n {
		panic(fmt.Sprintf("sim: got %d protocols and %d initial values for %d nodes", len(protos), len(init), n))
	}
	if cfg.MeanInterval <= 0 {
		panic("sim: EventConfig.MeanInterval must be positive")
	}
	if cfg.LatencyMin < 0 || cfg.LatencyMax < cfg.LatencyMin {
		panic("sim: invalid latency bounds")
	}
	if cfg.IntervalJitter < 0 || cfg.IntervalJitter >= 1 {
		panic("sim: IntervalJitter must be in [0, 1)")
	}
	e := &EventEngine{
		graph:  g,
		protos: protos,
		init:   make([]gossip.Value, n),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		cfg:    cfg,
	}
	var wsum stats.Sum2
	width := init[0].Width()
	sums := make([]stats.Sum2, width)
	for i := range protos {
		e.init[i] = init[i].Clone()
		protos[i].Reset(i, g.Neighbors(i), init[i].Clone())
		wsum.Add(init[i].W)
		for k, x := range init[i].X {
			sums[k].Add(x)
		}
	}
	e.targets = make([]float64, width)
	for k := range e.targets {
		e.targets[k] = sums[k].Value() / wsum.Value()
	}
	// Stagger initial activations uniformly over one mean interval.
	for i := 0; i < n; i++ {
		e.schedule(event{at: e.rng.Float64() * cfg.MeanInterval, node: i})
	}
	return e
}

func (e *EventEngine) schedule(ev event) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.queue, ev)
}

// Now returns the current simulation time.
func (e *EventEngine) Now() float64 { return e.now }

// Targets returns the oracle aggregate per component.
func (e *EventEngine) Targets() []float64 { return e.targets }

// step processes the next event; reports false when the queue is empty.
func (e *EventEngine) step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(event)
	e.now = ev.at
	if ev.msg != nil {
		e.protos[ev.msg.To].Receive(*ev.msg)
		return true
	}
	// Node activation: push to a random live neighbor, reschedule.
	e.Activations++
	p := e.protos[ev.node]
	if live := p.LiveNeighbors(); len(live) > 0 {
		target := int(live[e.rng.Intn(len(live))])
		var msg gossip.Message
		p.FillMessage(target, &msg)
		e.Sends++
		lat := e.cfg.LatencyMin + (e.cfg.LatencyMax-e.cfg.LatencyMin)*e.rng.Float64()
		e.schedule(event{at: e.now + lat, msg: &msg})
	}
	j := e.cfg.IntervalJitter
	interval := e.cfg.MeanInterval * (1 - j + 2*j*e.rng.Float64())
	e.schedule(event{at: e.now + interval, node: ev.node})
	return true
}

// Errors returns the worst relative error per node against the oracle.
func (e *EventEngine) Errors() []float64 {
	e.errBuf = e.errBuf[:0]
	for _, p := range e.protos {
		est := p.EstimateInto(nil)
		worst := 0.0
		for k, t := range e.targets {
			err := stats.RelErr(est[k], t)
			if math.IsNaN(err) {
				worst = math.NaN()
				break
			}
			if err > worst {
				worst = err
			}
		}
		e.errBuf = append(e.errBuf, worst)
	}
	return e.errBuf
}

// MaxError returns the maximal relative local error over all nodes.
func (e *EventEngine) MaxError() float64 { return stats.Max(e.Errors()) }

// EventResult summarizes a RunUntil call.
type EventResult struct {
	// Converged reports whether eps was reached before the deadline.
	Converged bool
	// Time is the simulation time at which the run stopped.
	Time float64
	// FinalMaxError is the maximal relative error at stop time.
	FinalMaxError float64
}

// RunUntil processes events until simulated time deadline or until the
// maximal relative error drops to eps (checked after every full mean
// interval's worth of events).
func (e *EventEngine) RunUntil(deadline, eps float64) EventResult {
	nextCheck := e.now + e.cfg.MeanInterval
	for e.now < deadline && e.step() {
		if e.now >= nextCheck {
			nextCheck = e.now + e.cfg.MeanInterval
			if err := e.MaxError(); !math.IsNaN(err) && err <= eps {
				return EventResult{Converged: true, Time: e.now, FinalMaxError: err}
			}
		}
	}
	return EventResult{Time: e.now, FinalMaxError: e.MaxError()}
}
