// Package sim provides the deterministic, round-based gossip simulator
// used for all paper experiments. In every round each live node is
// activated once; an activated node first processes the messages queued
// in its inbox and then pushes one message to a uniformly random live
// neighbor, exactly the execution model of the paper's Figs. 1 and 5
// ("on receive … on send").
//
// Two round models share one executor (shard.go) and one node body
// (activate: drain → detector → one push → keepalives). They differ in
// exactly three places:
//
//   - activation order: the sequential model (the default) activates in
//     a fresh seeded random permutation each round; the phase-split
//     model (WithShards/WithPartition) walks each shard in ascending id.
//   - push-target stream: one shared *math/rand.Rand, or one splitmix64
//     stream per node (draw).
//   - destination of a sent message (emit): the sequential model
//     delivers it immediately, so it is processed at the target's next
//     activation — possibly later in the same round — which makes each
//     pairwise flow exchange atomic, the standard sequential-event
//     simulation of gossip protocols; the phase-split model routes it
//     into a per-shard bucket delivered between rounds.
//
// (A lockstep double-buffered model would make the two endpoints of an
// edge overwrite each other's flow variables from stale state on every
// round, which biases the flow algorithms' ratio estimates; both models
// avoid this artifact — see shard.go for why next-round delivery does.)
//
// Two design decisions matter for reproducing the paper:
//
//   - The engine, not the protocol, draws the random communication
//     schedule (activation permutations and push targets). Two
//     algorithms run with the same seed therefore exchange messages
//     along bit-identical schedules, which the paper exploits when
//     comparing PF and PCF ("we initially used exactly the same random
//     seed", Sec. III-C).
//
//   - Convergence is measured by an oracle: the engine knows the exact
//     aggregate (computed with compensated summation) and tracks each
//     node's relative local error, the quantity plotted in Figs. 3, 4,
//     6 and 7.
//
// Fault injection composes via the Interceptor hook (per-message drop or
// corruption) and the FailLink/CrashNode methods (permanent failures with
// endpoint notification, as assumed in Sec. II-C). The oracle-free model
// is available too: SilenceLink/CrashNodeSilent/HangNode inject failures
// that nobody is told about, and WithDetector runs the detect.Detector
// state machine on every node, driven by round numbers, so detection
// latency and false-positive behaviour are exactly reproducible.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"unsafe"

	"pcfreduce/internal/detect"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

// Interceptor inspects (and may mutate or veto) every message at send
// time. Fault models such as message loss and bit flips implement it.
type Interceptor interface {
	// Intercept is called once per message in the given round. Returning
	// false drops the message. The message may be mutated in place to
	// model corruption. msg and its flow slices are engine storage that
	// is rewritten two rounds later: an interceptor that holds a message
	// back must keep a copy (msg.Clone()), never the pointer.
	Intercept(round int, msg *gossip.Message) bool
}

// InterceptorFunc adapts a function to the Interceptor interface.
type InterceptorFunc func(round int, msg *gossip.Message) bool

// Intercept implements Interceptor.
func (f InterceptorFunc) Intercept(round int, msg *gossip.Message) bool { return f(round, msg) }

// Replicator is an optional extension of Interceptor: when the installed
// interceptor also implements Replicator, Copies is consulted after
// Intercept passes a message and the message is enqueued that many times
// (1 = normal delivery, 2 = duplicated, 0 behaves like a drop). Used to
// model duplicate delivery without breaking per-link FIFO order.
type Replicator interface {
	Copies(round int, msg *gossip.Message) int
}

// Injector is an optional extension of Interceptor: after each send is
// processed (delivered or dropped), Extra is consulted and the returned
// messages are enqueued verbatim. Used to model delayed/reordered
// delivery of previously held-back messages.
type Injector interface {
	Extra(round int) []gossip.Message
}

// Engine drives a set of protocol instances over a topology in rounds.
//
// The steady-state round loop (Step + Errors) is allocation-free: each
// data message lives in its sender's round-parity slot, the rarer
// messages (keepalives, probes, interceptor copies, restored in-flight
// messages) in per-shard free lists recycled at dispatch/drop time (see
// shard.go), protocols fill engine buffers (FillMessage, EstimateInto)
// instead of allocating, and all
// per-round scratch (activation permutation, error/median buffers,
// oracle accumulators) is preallocated. Reset rewinds the engine for
// the next trial without reconstructing any of it.
type Engine struct {
	graph  *topology.Graph
	protos []gossip.Protocol
	init   []gossip.Value
	width  int        // shared value width of all initial values
	rng    *rand.Rand // sequential model: activation order and push targets
	seed   int64      // construction/Reset seed (join streams derive from it)

	// Open-world membership state (membership.go); all nil/zero until
	// the first membership operation.
	overlay     *topology.Overlay
	joinFactory func() gossip.Protocol
	lossRates   map[[2]int]float64 // per-link loss rates, ordered pairs i<j
	lossBase    uint64             // seed material for per-directed-link loss streams
	lossStreams map[[2]int]*uint64 // per-DIRECTED-link splitmix64 loss streams, keyed {from,to};
	// entries are created serially (SetLinkLoss, snapshot load) and only
	// the pointed-to state advances during delivery, so parallel delivery
	// tasks never write the map — each directed link is drawn only by its
	// destination shard's task (membership.go).
	layout map[int][]int32 // protocol storage rows that diverged from the overlay (membership.go)

	inbox    [][]*gossip.Message // slots or pooled messages; pooled ones recycled after dispatch
	alive    []bool
	dead     linkSet // failed links
	silenced linkSet // silently dropping links (no notification)
	hung     []bool  // transiently frozen nodes

	detCfg     *detect.Config
	keepEvery  int // idle rounds before a live link gets a keepalive
	probeEvery int // probe cadence toward suspected neighbors, in rounds
	det        []*detect.Detector
	lastSent   [][]int // lastSent[i][p]: round of node i's last send to layoutRow(i)[p]
	keepalives int

	targets     []float64 // oracle aggregate per component
	targetScale float64   // max_k |targets[k]|, for WithVectorScaleErrors
	scaleErrors bool
	round       int

	interceptor Interceptor

	rec      *metrics.Recorder // nil ⇒ every metrics touch is a no-op (observe.go)
	timeline *metrics.Timeline // nil ⇒ no span tracing (SetTimeline, observe.go)
	flight   *flight           // nil ⇒ phase timing off entirely (updateFlight, flight.go)
	inPhase1 bool              // inside phase-split phase 1: events must be staged per shard

	// Observe scratch (observe.go), nil until the first observe: every
	// alive node's local mass as a row (obsX[i·width…], obsW[i]),
	// written by its shard's task and summed serially.
	obsX   []float64
	obsW   []float64
	obsSum []stats.Sum2

	seq         bool                // sequential model: neither WithShards nor WithPartition given
	shards      int                 // executor shard count (1 under the sequential model)
	shard       *shardState         // executor state of both round models (shard.go)
	partition   *topology.Partition // explicit shard layout (WithPartition); nil = contiguous
	phaseLabels bool                // pprof-label pooled tasks (WithPhaseLabels)

	nodeCkpt []*gossip.State // per-node crash-restart checkpoints (snapshot.go); nil until CheckpointNode

	perm   []int32      // sequential activation order
	errBuf []float64    // Errors scratch
	medBuf []float64    // sorted-error scratch (recordPoint)
	sumBuf []stats.Sum2 // recomputeTargets scratch
}

// EngineOption configures an Engine at construction time.
type EngineOption func(*Engine)

// WithDetector enables oracle-free failure detection: every node runs a
// detect.Detector over its neighbors, suspected neighbors are evicted
// via OnLinkFailure and reintegrated via OnLinkRecover when their
// traffic resumes. The detector adds no randomness — a run with the
// detector enabled uses the same seeded communication schedule as one
// without, which is what makes detection experiments reproducible.
//
// All durations are in rounds; cfg.Timeout is required > 0. A node
// pushes one data message per round to one random neighbor, so a
// degree-d node's links each see data roughly every d rounds. A live
// link idle for max(1, Timeout/5) rounds gets an explicit keepalive, and
// suspected neighbors are probed every twice that so healed links
// reintegrate.
func WithDetector(cfg detect.Config) EngineOption {
	keep := max(1, int(cfg.Timeout/5))
	return func(e *Engine) { e.detCfg, e.keepEvery, e.probeEvery = &cfg, keep, 2*keep }
}

// WithVectorScaleErrors switches the per-node error metric from
// per-component relative error to error relative to the target vector's
// scale: err_i = max_k |est_i[k] − t_k| / max_j |t_j|. For scalar
// reductions the two coincide (up to the zero-target fallback); for
// vector-valued reductions — e.g. the batched dot products of dmGS —
// components that are incidentally tiny (nearly orthogonal columns) no
// longer dominate the convergence criterion with meaninglessly large
// relative errors.
func WithVectorScaleErrors() EngineOption { return func(e *Engine) { e.scaleErrors = true } }

// New creates an engine over graph g with one protocol instance and one
// initial value per node. The protocols are Reset with the graph's
// neighborhoods. All initial values must share the same width.
func New(g *topology.Graph, protos []gossip.Protocol, init []gossip.Value, seed int64, opts ...EngineOption) *Engine {
	n := g.N()
	if len(protos) != n || len(init) != n {
		panic(fmt.Sprintf("sim: got %d protocols and %d initial values for %d nodes", len(protos), len(init), n))
	}
	width := init[0].Width()
	for i, v := range init {
		if v.Width() != width {
			panic(fmt.Sprintf("sim: initial value width mismatch at node %d", i))
		}
	}
	e := &Engine{
		graph:  g,
		protos: protos,
		init:   make([]gossip.Value, n),
		width:  width,
		rng:    rand.New(rand.NewSource(seed)),
		seed:   seed,
		inbox:  make([][]*gossip.Message, n),
		alive:  make([]bool, n),
		hung:   make([]bool, n),
		perm:   make([]int32, n),
		errBuf: make([]float64, 0, n),
		medBuf: make([]float64, 0, n),
		sumBuf: make([]stats.Sum2, width),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.shards == 0 {
		e.seq, e.shards = true, 1
	}
	for i := range protos {
		e.init[i] = init[i].Clone()
		e.alive[i] = true
		protos[i].Reset(i, g.Neighbors(i), init[i].Clone())
	}
	for i := range e.perm {
		e.perm[i] = int32(i)
	}
	if e.detCfg != nil {
		if err := e.detCfg.Validate(); err != nil {
			panic(err)
		}
		e.det = make([]*detect.Detector, n)
		e.lastSent = make([][]int, n)
		for i := range protos {
			e.det[i] = detect.New(*e.detCfg, g.Neighbors(i), 0)
			e.clearSent(i)
		}
	}
	e.initShards(seed)
	e.seedLossRNG(seed)
	e.recomputeTargets()
	return e
}

// NewScalar is a convenience constructor for scalar reductions: node i
// starts with data inputs[i] and the weight prescribed by the aggregate.
func NewScalar(g *topology.Graph, protos []gossip.Protocol, inputs []float64, agg gossip.Aggregate, seed int64, opts ...EngineOption) *Engine {
	init := make([]gossip.Value, len(inputs))
	for i, x := range inputs {
		init[i] = gossip.Scalar(x, agg.InitialWeight(i))
	}
	return New(g, protos, init, seed, opts...)
}

// SetInterceptor installs the message interceptor (nil disables).
func (e *Engine) SetInterceptor(ic Interceptor) { e.interceptor = ic }

// Reset rewinds the engine to round zero under a new schedule seed,
// reusing every internal buffer (inboxes, message slots and pools,
// scratch slices) instead of reconstructing the engine — the per-trial
// reuse API of the parallel sweep runner. After Reset(s) the engine behaves exactly like
// a freshly constructed engine with seed s over the same graph,
// protocols and current inputs: the RNG stream, activation permutation
// state and protocol state are all restored, so reused and fresh
// engines produce bit-identical runs (enforced by TestResetReproducesFresh).
//
// Inputs changed via UpdateInput are kept (Reset restarts the
// computation from the engine's current inputs); the interceptor and
// metrics recorder are cleared, since fault injectors and observation
// are per-trial state.
func (e *Engine) Reset(seed int64) {
	e.dropMembership() // joined nodes, overlay and loss table are per-trial state
	e.rng = rand.New(rand.NewSource(seed))
	e.seed = seed
	e.seedLossRNG(seed)
	e.round = 0
	e.keepalives = 0
	e.interceptor = nil
	e.rec = nil
	e.timeline = nil
	e.flight = nil
	for i := range e.inbox {
		e.clearInbox(i)
		e.alive[i] = true
		e.hung[i] = false
	}
	e.dead.reset()
	e.silenced.reset()
	// New leaves perm as the identity permutation; Step shuffles it in
	// place every round, so restoring the identity is what makes the
	// reused RNG stream reproduce a fresh engine's schedule.
	for i := range e.perm {
		e.perm[i] = int32(i)
	}
	for i, p := range e.protos {
		p.Reset(i, e.graph.Neighbors(i), e.init[i].Clone())
	}
	if e.detCfg != nil {
		for i := range e.protos {
			e.det[i] = detect.New(*e.detCfg, e.graph.Neighbors(i), 0)
			e.clearSent(i)
		}
	}
	e.seedNodeRNG(seed)
	e.clearRoundState()
	if e.nodeCkpt != nil {
		// Per-node crash-restart checkpoints belong to the finished
		// trial; a RestartNode in the next trial must not revive state
		// from this one.
		clear(e.nodeCkpt)
	}
	e.recomputeTargets()
}

// ResetWithInputs rewinds the engine like Reset while replacing every
// node's initial value — the per-reduction reuse API for callers that
// issue a sequence of reductions over one topology (dmGS issues 2m−1,
// the eigensolver one per iteration): instead of constructing a fresh
// engine per reduction, construct one and ResetWithInputs between
// reductions, keeping the graph, protocol state arrays, inboxes and
// message pools allocated. The value width may differ from the previous
// reduction (batched callers vary k); a width change invalidates the
// message slots and the pooled message backing, which are rebuilt
// lazily. After the call the engine behaves exactly like a freshly
// constructed engine with the given seed and inputs (the Reset
// bit-identical-to-fresh contract).
//
// init must hold one value per base-graph node (like New; any nodes
// joined mid-trial are dropped first, as with Reset), all of one width.
func (e *Engine) ResetWithInputs(seed int64, init []gossip.Value) {
	e.dropMembership() // joined nodes are per-trial state; shrink before the length check
	if len(init) != len(e.protos) {
		panic(fmt.Sprintf("sim: ResetWithInputs got %d initial values for %d nodes", len(init), len(e.protos)))
	}
	width := init[0].Width()
	for i, v := range init {
		if v.Width() != width {
			panic(fmt.Sprintf("sim: initial value width mismatch at node %d", i))
		}
	}
	if width != e.width {
		// Pooled messages carry width-sized flow backing: a width change
		// invalidates every free list and width-sized scratch buffer.
		// Narrower pooled messages are dropped by the putMsg guards as the
		// inboxes drain during Reset below.
		e.width = width
		e.sumBuf = make([]stats.Sum2, width)
		e.targets = make([]float64, width)
		for s := range e.shard.local {
			e.shard.local[s].pool = nil
			e.shard.local[s].est = make([]float64, width, lineCap(width))
		}
	}
	for i, v := range init {
		if e.init[i].Width() == width {
			e.init[i].CopyFrom(v)
		} else {
			e.init[i] = v.Clone()
		}
	}
	e.Reset(seed)
}

// Round returns the number of completed rounds.
func (e *Engine) Round() int { return e.round }

// N returns the current number of nodes, including any that joined the
// open-world overlay mid-run (ids are dense and never reused, so this
// grows monotonically within a trial).
func (e *Engine) N() int { return len(e.protos) }

// Graph returns the engine's topology.
func (e *Engine) Graph() *topology.Graph { return e.graph }

// Protocol returns node i's protocol instance.
func (e *Engine) Protocol(i int) gossip.Protocol { return e.protos[i] }

// Targets returns the oracle aggregate, one entry per data component,
// computed over the currently alive nodes with compensated summation.
func (e *Engine) Targets() []float64 { return e.targets }

func (e *Engine) recomputeTargets() {
	if e.targets == nil {
		e.targets = make([]float64, e.width)
	}
	var wsum stats.Sum2
	sums := e.sumBuf
	for k := range sums {
		sums[k].Reset()
	}
	for i, v := range e.init {
		if !e.alive[i] {
			continue
		}
		wsum.Add(v.W)
		for k, x := range v.X {
			sums[k].Add(x)
		}
	}
	for k := range e.targets {
		e.targets[k] = sums[k].Value() / wsum.Value()
	}
	e.targetScale = 0
	for _, t := range e.targets {
		if a := math.Abs(t); a > e.targetScale {
			e.targetScale = a
		}
	}
}

// getMsg takes a message off shard s's free list (or allocates a fresh
// one with width-sized flow backing) for what is not a data send: a
// keepalive or probe, an interceptor's copy, a message held for a hung
// receiver, a restored in-flight message. Within a round only shard s's
// worker touches pool s; between rounds the engine is single-threaded.
// Callers must fully overwrite its header fields; the flow slices
// arrive reset to the engine width.
func (e *Engine) getMsg(s int) *gossip.Message {
	l := &e.shard.local[s]
	if n := len(l.pool); n > 0 {
		m := l.pool[n-1]
		l.pool = l.pool[:n-1]
		e.rec.Bank(s).Inc(metrics.FreeListHits)
		return m
	}
	e.rec.Bank(s).Inc(metrics.FreeListMisses)
	l.misses++
	return &gossip.Message{Flow1: gossip.NewValue(e.width), Flow2: gossip.NewValue(e.width)}
}

// putMsg returns a message to shard s's free list, restoring its flow
// slices to the engine width from their capacity. Slots stay with their
// sender. Messages whose backing arrays cannot hold a full-width value
// (e.g. injector-fabricated ones) are left to the garbage collector
// instead of poisoning the pool.
func (e *Engine) putMsg(s int, m *gossip.Message) {
	if e.isSlot(m) || cap(m.Flow1.X) < e.width || cap(m.Flow2.X) < e.width {
		return
	}
	m.Flow1.X = m.Flow1.X[:e.width]
	m.Flow2.X = m.Flow2.X[:e.width]
	e.shard.local[s].pool = append(e.shard.local[s].pool, m)
}

// ensureSlots builds the data-message slots on the first Step, grows
// them once joins outnumber them and rebuilds them after a width change
// (ResetWithInputs). A message still in flight in a replaced array is no
// slot any more: it retires into the free list after dispatch like a
// pooled one, and nothing writes the old array again.
func (e *Engine) ensureSlots() {
	ss := e.shard
	n, w := len(e.protos), e.width
	k := len(ss.slots)
	if len(ss.slotFlows) != 2*w*k {
		k = 0 // the width changed: rebuild at the new one
	} else if 2*n <= k {
		return
	}
	k = max(2*n, k+k/4) // a join grows the slots by a quarter, not by one
	ss.slots = make([]gossip.Message, k)
	ss.slotFlows = make([]float64, 2*w*k)
}

// dataSlot returns node i's data-message slot of the current round,
// slot 2i + round mod 2, with its flows pointed afresh at the slot's own
// backing: a FillMessage that truncates or resizes a flow may have left
// them pointing elsewhere or without capacity.
func (e *Engine) dataSlot(i int) *gossip.Message {
	k := 2*i + e.round&1
	w := e.width
	m := &e.shard.slots[k]
	pointFlows(m, e.shard.slotFlows[2*k*w:2*(k+1)*w:2*(k+1)*w], w)
	return m
}

// pointFlows aims m's two flows at the 2·w floats of f.
func pointFlows(m *gossip.Message, f []float64, w int) {
	m.Flow1.X = f[:w:w]
	m.Flow2.X = f[w:]
}

// isSlot reports whether m is one of the current data-message slots.
func (e *Engine) isSlot(m *gossip.Message) bool {
	s := e.shard.slots
	return len(s) > 0 &&
		uintptr(unsafe.Pointer(m))-uintptr(unsafe.Pointer(&s[0])) < uintptr(len(s))*unsafe.Sizeof(s[0])
}

// hold returns what to queue in the inbox of a receiver that may keep
// it past its next activation, a hung one: a slot, which its sender
// rewrites two rounds after sending, is copied into a message from
// shard s's free list.
func (e *Engine) hold(m *gossip.Message, s int) *gossip.Message {
	if e.isSlot(m) {
		return e.cloneMsg(m, s)
	}
	return m
}

// owner returns the shard that owns node i: between rounds, messages
// recycled out of i's inbox go back to this shard's free list, the one
// i's next activation draws from.
func (e *Engine) owner(i int) int { return int(e.shard.shardOf[i]) }

// makeControl produces a pooled payload-free control message (keepalive
// or link-down notice) from shard s's free list: zero-width flows,
// exactly the wire shape a literal gossip.Message{Kind: ...} has, so
// interceptors that enumerate payload slots observe the same message
// shape either way.
func (e *Engine) makeControl(from, to int, kind gossip.Kind, s int) *gossip.Message {
	m := e.getMsg(s)
	m.From, m.To, m.Kind = from, to, kind
	m.C, m.R = 0, 0
	m.Flow1.X = m.Flow1.X[:0]
	m.Flow1.W = 0
	m.Flow2.X = m.Flow2.X[:0]
	m.Flow2.W = 0
	return m
}

// Step executes one round. The sequential model activates every live
// node in a fresh seeded random permutation, delivering each message
// immediately; the phase-split model (WithShards/WithPartition) runs
// stepSharded instead (frozen inboxes, next-round delivery, per-node
// RNG streams).
func (e *Engine) Step() {
	e.ensureSlots()
	if !e.seq {
		e.stepSharded()
		return
	}
	e.rng.Shuffle(len(e.perm), func(a, b int) { e.perm[a], e.perm[b] = e.perm[b], e.perm[a] })
	e.activate(e.perm, 0)
	e.foldKeepalives()
	e.round++
}

// activate gives every live node in ids, in that order, its turn of
// the round — the node body both models share: drain the inbox, run
// the failure detector, push one message to a random live neighbor,
// then send due keepalives and probes. s is the shard that owns the
// nodes; a turn touches only node-local state (its own message slot
// included) plus shard s's block (pool, outbox row, keepalive counter)
// and counter bank — the invariant that lets phase 1 run shards in
// parallel. The loop lives here rather than in the callers so the
// per-node path has no extra call.
func (e *Engine) activate(ids []int32, s int) {
	for _, i32 := range ids {
		i := int(i32)
		if !e.alive[i] || e.hung[i] {
			continue
		}
		p := e.protos[i]
		e.drainInbox(i, s)
		if e.det != nil {
			for _, j := range e.det[i].Check(float64(e.round)) {
				p.OnLinkFailure(j)
				if e.rec != nil {
					b := e.rec.Bank(s)
					b.Inc(metrics.Suspicions)
					b.Inc(metrics.Evictions)
					e.noteEvent(metrics.Event{Kind: metrics.EvLinkEvicted, Round: e.round, A: i, B: j})
				}
			}
		}
		if live := p.LiveNeighbors(); len(live) > 0 {
			// The push-target stream: the shared RNG in the sequential
			// model, node i's own stream otherwise.
			var k int
			if e.seq {
				k = e.rng.Intn(len(live))
			} else {
				k = e.draw(i, len(live))
			}
			target := int(live[k])
			e.noteSent(i, target)
			e.rec.Bank(s).Inc(metrics.MsgsSent)
			m := e.dataSlot(i)
			p.FillMessage(target, m)
			// emit, written out: the per-message path of phase 1 stays
			// free of an extra call.
			if e.seq {
				e.send(s, m)
			} else {
				d := e.shard.shardOf[target]
				e.shard.local[s].bucket[d] = append(e.shard.local[s].bucket[d], m)
			}
		}
		if e.det != nil {
			e.sendKeepalives(i, s)
		}
	}
}

// emit hands one of shard s's outgoing messages to its destination:
// immediate delivery in the sequential model, the (s → destination
// shard) bucket in the phase-split model.
func (e *Engine) emit(s int, m *gossip.Message) {
	if e.seq {
		e.send(s, m)
		return
	}
	d := e.shard.shardOf[m.To]
	e.shard.local[s].bucket[d] = append(e.shard.local[s].bucket[d], m)
}

// noteSent records the round of node i's last send to j for keepalive
// scheduling.
func (e *Engine) noteSent(i, j int) {
	if e.lastSent != nil {
		if p := e.sentPos(i, j); p >= 0 {
			e.lastSent[i][p] = e.round
		}
	}
}

// sentPos is neighbor j's position in node i's storage row, the index of
// its entry in lastSent[i]; -1 when j is not in the row (every target
// of a send is).
func (e *Engine) sentPos(i, j int) int { return slices.Index(e.layoutRow(i), int32(j)) }

// sinceSent is the number of rounds since node i last sent to j.
func (e *Engine) sinceSent(i, j int) int {
	if p := e.sentPos(i, j); p >= 0 {
		return e.round - e.lastSent[i][p]
	}
	return e.round
}

// clearSent gives node i one last-send round per entry of its storage
// row, all zero.
func (e *Engine) clearSent(i int) {
	ls := e.lastSent[i][:0]
	for range e.layoutRow(i) {
		ls = append(ls, 0)
	}
	e.lastSent[i] = ls
}

// growSent extends node i's last-send row to its storage row, which
// only ever grows at its end (layoutRow); a new neighbor starts at
// round zero.
func (e *Engine) growSent(i int) {
	for len(e.lastSent[i]) < len(e.layoutRow(i)) {
		e.lastSent[i] = append(e.lastSent[i], 0)
	}
}

// sendKeepalives pushes keepalives on live links that have been idle for
// keepEvery rounds and probes suspected neighbors every probeEvery
// rounds so that healed links reintegrate (after mutual
// eviction neither side gossips to the other; only probes can cross a
// recovered link). They are counted per shard and folded into the
// engine total at the end of the round.
func (e *Engine) sendKeepalives(i, s int) {
	for _, j32 := range e.protos[i].LiveNeighbors() {
		if j := int(j32); e.sinceSent(i, j) >= e.keepEvery {
			e.keepalive(i, j, s)
		}
	}
	for _, j := range e.det[i].Suspects() {
		if e.sinceSent(i, j) >= e.probeEvery {
			e.keepalive(i, j, s)
		}
	}
}

// keepalive sends one keepalive or probe from i to j on shard s.
func (e *Engine) keepalive(i, j, s int) {
	e.noteSent(i, j)
	e.shard.local[s].keep++
	e.rec.Bank(s).Inc(metrics.Keepalives)
	e.emit(s, e.makeControl(i, j, gossip.KindKeepalive, s))
}

// drainInbox processes node i's inbox in index order (per-link FIFO),
// recycling each pooled message into shard s's free list right after
// dispatch — receivers never retain message backing (protocols copy
// payloads into their own state).
func (e *Engine) drainInbox(i, s int) {
	for k := 0; k < len(e.inbox[i]); k++ {
		m := e.inbox[i][k]
		e.dispatch(i, m)
		e.putMsg(s, m)
	}
	e.inbox[i] = e.inbox[i][:0]
}

// dispatch routes one delivered message: control messages feed the
// detector, data messages additionally reach the protocol. Traffic from
// a suspected neighbor reintegrates it before the protocol sees the
// payload, so a protocol never processes data on an edge it considers
// failed. The caller recycles m afterwards.
func (e *Engine) dispatch(i int, m *gossip.Message) {
	switch m.Kind {
	case gossip.KindLinkDown:
		e.protos[i].OnLinkFailure(m.From)
		if e.det != nil {
			e.det[i].Remove(m.From)
		}
	case gossip.KindKeepalive:
		e.heard(i, m.From)
	default:
		if e.det != nil && e.det[i].Removed(m.From) {
			return // late traffic from an authoritatively failed neighbor
		}
		e.heard(i, m.From)
		e.protos[i].Receive(*m)
	}
}

// heard feeds node i's detector with traffic from a neighbor and
// performs reintegration when a suspected neighbor's traffic resumes.
func (e *Engine) heard(i, from int) {
	if e.det == nil {
		return
	}
	if e.det[i].Heard(from, float64(e.round)) {
		e.protos[i].OnLinkRecover(from)
		if e.rec != nil {
			// i's shard bank: the only one i's activation may write.
			e.rec.Bank(e.owner(i)).Inc(metrics.Reintegrations)
			e.noteEvent(metrics.Event{Kind: metrics.EvLinkReintegrated, Round: e.round, A: i, B: from})
		}
	}
}

// send is the sequential model's immediate delivery: it routes msg
// through the link-failure table and the interceptor into the
// destination inbox. The engine owns msg (a slot or pooled): dropped
// pooled messages are recycled into shard s's free list immediately,
// delivered ones after dispatch.
func (e *Engine) send(s int, msg *gossip.Message) {
	if e.unreachable(msg) || (e.lossRates != nil && e.lossDrop(msg.From, msg.To)) {
		e.rec.Bank(s).Inc(metrics.MsgsLost)
		e.putMsg(s, msg)
		return // broken, silenced or dead destination, or per-link loss
	}
	if e.hung[msg.To] {
		msg = e.hold(msg, s)
	}
	if e.interceptor == nil {
		e.rec.Bank(s).Inc(metrics.MsgsDelivered)
		e.inbox[msg.To] = append(e.inbox[msg.To], msg)
		return
	}
	copies := e.intercept(msg)
	if copies == 0 {
		e.putMsg(s, msg)
	}
	for k := 0; k < copies; k++ {
		if k == 0 {
			e.inbox[msg.To] = append(e.inbox[msg.To], msg)
		} else {
			e.inbox[msg.To] = append(e.inbox[msg.To], e.cloneMsg(msg, s))
		}
	}
	if inj, ok := e.interceptor.(Injector); ok {
		for _, x := range inj.Extra(e.round) {
			if !e.unreachable(&x) {
				e.inbox[x.To] = append(e.inbox[x.To], e.cloneMsg(&x, s))
			}
		}
	}
}

// unreachable reports whether m is lost in flight: its link failed or
// is silenced, or its destination is dead. The link sets are hashed
// only when the sender has a failed or silenced link at all.
func (e *Engine) unreachable(m *gossip.Message) bool {
	if !e.alive[m.To] {
		return true
	}
	return e.dead.touches(m.From) && e.dead.has(m.From, m.To) ||
		e.silenced.touches(m.From) && e.silenced.has(m.From, m.To)
}

// intercept runs the installed interceptor on msg — Intercept, then
// Replicator.Copies — and returns how many copies to enqueue (0 drops
// it), counting msg as delivered or dropped. Both engines share it, so
// their interception semantics cannot drift apart.
func (e *Engine) intercept(msg *gossip.Message) int {
	copies := 0
	if e.interceptor.Intercept(e.round, msg) {
		copies = 1
		if r, ok := e.interceptor.(Replicator); ok {
			copies = r.Copies(e.round, msg)
		}
	}
	if copies == 0 {
		e.rec.Bank(0).Inc(metrics.MsgsDropped)
	} else {
		e.rec.Bank(0).Inc(metrics.MsgsDelivered)
	}
	return copies
}

// cloneMsg deep-copies m into a message from shard s's free list.
func (e *Engine) cloneMsg(m *gossip.Message, s int) *gossip.Message {
	c := e.getMsg(s)
	c.From, c.To, c.Kind = m.From, m.To, m.Kind
	c.C, c.R = m.C, m.R
	c.Flow1.CopyFrom(m.Flow1)
	c.Flow2.CopyFrom(m.Flow2)
	return c
}

// Drain delivers all pending messages without generating new sends.
// After Drain, every exchange has been acknowledged, so flow conservation
// (and hence mass conservation) holds exactly for flow-based protocols.
// Primarily a testing aid.
func (e *Engine) Drain() {
	for i := range e.inbox {
		if !e.alive[i] {
			e.clearInbox(i)
			continue
		}
		e.drainInbox(i, e.owner(i))
	}
}

// clearInbox discards node i's queued messages back into its shard's
// free list.
func (e *Engine) clearInbox(i int) {
	for _, m := range e.inbox[i] {
		e.putMsg(e.owner(i), m)
	}
	e.inbox[i] = e.inbox[i][:0]
}

// FailLink permanently fails the undirected link between i and j at a
// quiescent point: messages already in flight on the link are delivered
// first, then both endpoints are notified (they zero the corresponding
// flow state, per Sec. II-C of the paper).
//
// This is the failure model under which the paper's Figs. 4/7 hold
// exactly: with the edge's flow pair acknowledged, zeroing both mirrors
// is a pure mass *redistribution* (large for PF — the restart effect;
// tiny for PCF — no fall-back) and global mass conservation is
// untouched. See FailLinkAbrupt for the harsher model.
func (e *Engine) FailLink(i, j int) {
	e.failLink(i, j, false)
}

// FailLinkAbrupt fails the link mid-transit: in-flight messages on the
// link are lost. The destroyed messages leave the edge's flow pair
// unacknowledged, so beyond the redistribution effect the network
// permanently loses the unacked mass delta. For PCF that delta has the
// ratio of the sender's current estimate, so the resulting bias is
// roughly ε(t_fail)/n — far below the error at failure time, but a
// floor the reduction cannot later cross (measured by EXP-H).
func (e *Engine) FailLinkAbrupt(i, j int) {
	e.failLink(i, j, true)
}

func (e *Engine) failLink(i, j int, abrupt bool) {
	if !e.hasEdge(i, j) {
		panic(fmt.Sprintf("sim: no link (%d,%d) to fail", i, j))
	}
	if e.dead.has(i, j) {
		return
	}
	kind := metrics.EvLinkFail
	if abrupt {
		kind = metrics.EvLinkFailAbrupt
	}
	e.noteEvent(metrics.Event{Kind: kind, Round: e.round, A: i, B: j})
	if abrupt {
		// Abrupt failures destroy in-flight state by design: notify the
		// endpoints without measuring what the teardown strands.
		e.dead.add(i, j)
		e.purgeLink(i, j)
		if e.alive[i] {
			e.protos[i].OnLinkFailure(j)
			if e.det != nil {
				e.det[i].Remove(j)
			}
		}
		if e.alive[j] {
			e.protos[j].OnLinkFailure(i)
			if e.det != nil {
				e.det[j].Remove(i)
			}
		}
		return
	}
	e.flushLink(i, j)
	e.dead.add(i, j)
	e.teardownPair(i, j)
}

// flushLink delivers the in-flight messages between i and j (in queue
// order) and removes them from the inboxes.
func (e *Engine) flushLink(i, j int) {
	for _, v := range [2]int{i, j} {
		if !e.alive[v] {
			e.clearInbox(v)
			continue
		}
		out := e.inbox[v][:0]
		for _, m := range e.inbox[v] {
			if (m.From == i && m.To == j) || (m.From == j && m.To == i) {
				e.dispatch(v, m)
				e.putMsg(e.owner(v), m)
				continue
			}
			out = append(out, m)
		}
		e.inbox[v] = out
	}
}

// CrashNode permanently fails node i: all its links fail (with endpoint
// notification on the surviving side), it stops participating, and the
// oracle aggregate is recomputed over the survivors — the value the
// network can still recover (the crashed node's local mass is lost, and
// flow algorithms reclaim per-link contributions by zeroing flows).
func (e *Engine) CrashNode(i int) {
	if !e.alive[i] {
		return
	}
	e.noteEvent(metrics.Event{Kind: metrics.EvNodeCrash, Round: e.round, A: i, B: -1})
	e.alive[i] = false
	for _, j32 := range e.neighbors(i) {
		j := int(j32)
		if e.dead.has(i, j) {
			continue
		}
		e.dead.add(i, j)
		e.purgeLink(i, j)
		if e.alive[j] {
			e.protos[j].OnLinkFailure(i)
			if e.det != nil {
				e.det[j].Remove(i)
			}
		}
	}
	e.clearInbox(i)
	e.recomputeTargets()
}

// purgeLink removes in-flight messages between i and j; such messages can
// only sit in the two endpoint inboxes.
func (e *Engine) purgeLink(i, j int) {
	for _, v := range [2]int{i, j} {
		out := e.inbox[v][:0]
		for _, m := range e.inbox[v] {
			if (m.From == i && m.To == j) || (m.From == j && m.To == i) {
				e.putMsg(e.owner(v), m)
				continue
			}
			out = append(out, m)
		}
		e.inbox[v] = out
	}
}

// SilenceLink silently drops every message on the undirected link
// between i and j, in both directions, with NO notification to either
// endpoint — the oracle-free outage model. Only a failure detector
// (WithDetector) can react to it. RestoreLink heals the outage.
func (e *Engine) SilenceLink(i, j int) {
	if !e.hasEdge(i, j) {
		panic(fmt.Sprintf("sim: no link (%d,%d) to silence", i, j))
	}
	if !e.silenced.has(i, j) {
		e.noteEvent(metrics.Event{Kind: metrics.EvLinkSilence, Round: e.round, A: i, B: j})
	}
	e.silenced.add(i, j)
}

// RestoreLink heals a silenced link: messages flow again, and detectors
// that evicted the peer will reintegrate it once its traffic resumes.
func (e *Engine) RestoreLink(i, j int) {
	if e.silenced.has(i, j) {
		e.noteEvent(metrics.Event{Kind: metrics.EvLinkRestore, Round: e.round, A: i, B: j})
	}
	e.silenced.remove(i, j)
}

// CrashNodeSilent crashes node i without notifying anyone: its in-flight
// messages are lost and it falls silent. Neighbors keep pushing mass into
// the dead links until a failure detector evicts the node — the scenario
// that motivates the detection layer. The oracle aggregate is recomputed
// over the survivors, as with CrashNode.
func (e *Engine) CrashNodeSilent(i int) {
	if !e.alive[i] {
		return
	}
	e.noteEvent(metrics.Event{Kind: metrics.EvNodeCrashSilent, Round: e.round, A: i, B: -1})
	e.alive[i] = false
	e.clearInbox(i)
	e.recomputeTargets()
}

// HangNode freezes node i: it stops being activated (no receives, no
// sends) but is not dead — ResumeNode unfreezes it. Messages sent to a
// hung node queue in its inbox and are processed on resume, modeling a
// long GC pause or an overloaded host. Queued slots would outlive their
// two-round lifetime, so they are swapped for pooled copies.
func (e *Engine) HangNode(i int) {
	if !e.hung[i] {
		e.noteEvent(metrics.Event{Kind: metrics.EvNodeHang, Round: e.round, A: i, B: -1})
		for k, m := range e.inbox[i] {
			e.inbox[i][k] = e.hold(m, e.owner(i))
		}
	}
	e.hung[i] = true
}

// ResumeNode unfreezes a node hung with HangNode.
func (e *Engine) ResumeNode(i int) {
	if e.hung[i] {
		e.noteEvent(metrics.Event{Kind: metrics.EvNodeResume, Round: e.round, A: i, B: -1})
	}
	e.hung[i] = false
}

// DetectorStats aggregates failure-detection counters over all nodes.
type DetectorStats struct {
	// Suspicions counts transitions into the suspected state.
	Suspicions int
	// Reintegrations counts suspected neighbors welcomed back.
	Reintegrations int
	// Keepalives counts keepalive and probe messages pushed.
	Keepalives int
}

// DetectorStats sums the detection counters over all nodes. Zero when
// the engine runs without WithDetector.
func (e *Engine) DetectorStats() DetectorStats {
	var s DetectorStats
	if e.det == nil {
		return s
	}
	s.Keepalives = e.keepalives
	for _, d := range e.det {
		s.Suspicions += d.Suspicions
		s.Reintegrations += d.Reintegrations
	}
	return s
}

// Suspects returns the neighbors node i currently suspects (nil without
// WithDetector).
func (e *Engine) Suspects(i int) []int {
	if e.det == nil {
		return nil
	}
	return e.det[i].Suspects()
}

// Alive reports whether node i has not crashed.
func (e *Engine) Alive(i int) bool { return e.alive[i] }

// UpdateInput replaces node i's input value mid-run (live monitoring,
// the paper's reference [8] use case) and updates the oracle aggregate.
// The new value must keep the node's original weight and width.
func (e *Engine) UpdateInput(i int, v gossip.Value) {
	if v.Width() != e.init[i].Width() || v.W != e.init[i].W {
		panic("sim: UpdateInput must preserve width and weight")
	}
	if !e.alive[i] {
		return
	}
	e.init[i] = v.Clone()
	e.protos[i].SetInput(v)
	e.recomputeTargets()
}

// Estimates returns each alive node's current estimate vector; crashed
// nodes yield nil.
func (e *Engine) Estimates() [][]float64 {
	out := make([][]float64, len(e.protos))
	for i, p := range e.protos {
		if e.alive[i] {
			out[i] = p.EstimateInto(nil)
		}
	}
	return out
}

// Errors returns, for each alive node, the worst relative error over all
// data components against the oracle aggregate. The returned slice is
// reused across calls. Each shard scans its own nodes (in parallel when
// there are several); the per-shard slices are merged in ascending node
// id order, so the result is the same skip-dead sequence for every
// shard layout.
func (e *Engine) Errors() []float64 {
	e.runShards("errors", metrics.PhaseErrors, e.shard.errorsTask)
	return e.mergeErrors()
}

// mergeErrors concatenates the shards' errs scratch in ascending node id
// order into the engine's Errors buffer.
func (e *Engine) mergeErrors() []float64 {
	local := e.shard.local
	e.errBuf = e.errBuf[:0]
	if e.shard.contig {
		for s := range local {
			e.errBuf = append(e.errBuf, local[s].errs...)
		}
		return e.errBuf
	}
	cur := e.shard.cursor
	clear(cur)
	for i := 0; i < len(e.protos); i++ {
		if !e.alive[i] {
			continue
		}
		s := e.shard.shardOf[i]
		e.errBuf = append(e.errBuf, local[s].errs[cur[s]])
		cur[s]++
	}
	return e.errBuf
}

// worstErr returns the worst relative error of one node's estimate
// vector against the oracle targets (NaN as soon as any component is
// NaN).
func (e *Engine) worstErr(est []float64) float64 {
	worst := 0.0
	for k, t := range e.targets {
		var err float64
		if e.scaleErrors && e.targetScale > 0 {
			err = math.Abs(est[k]-t) / e.targetScale
		} else {
			err = stats.RelErr(est[k], t)
		}
		if math.IsNaN(err) {
			return math.NaN()
		}
		if err > worst {
			worst = err
		}
	}
	return worst
}

// MaxError returns the maximal relative local error over all alive nodes.
func (e *Engine) MaxError() float64 { return stats.Max(e.Errors()) }

// GlobalMass sums the local mass of all alive protocols with compensated
// summation — the conserved quantity of Sec. II-A. Meaningful after
// Drain (no in-flight messages).
func (e *Engine) GlobalMass() gossip.Value {
	width := e.init[0].Width()
	sums := make([]stats.Sum2, width)
	var wsum stats.Sum2
	var v gossip.Value
	for i, p := range e.protos {
		if !e.alive[i] {
			continue
		}
		p.LocalValueInto(&v)
		wsum.Add(v.W)
		for k, x := range v.X {
			sums[k].Add(x)
		}
	}
	out := gossip.NewValue(width)
	for k := range sums {
		out.X[k] = sums[k].Value()
	}
	out.W = wsum.Value()
	return out
}

// RunConfig controls a Run.
type RunConfig struct {
	// MaxRounds bounds the run (required, > 0).
	MaxRounds int
	// Eps, when > 0, stops the run once the oracle maximal relative
	// local error is ≤ Eps.
	Eps float64
	// Record, when true, appends one ErrorPoint per round to the result
	// series.
	Record bool
	// OnRound, when non-nil, is invoked before each round with the
	// round index about to execute — the hook used to inject failures
	// at prescribed iterations (Figs. 4 and 7).
	OnRound func(e *Engine, round int)
	// AfterRound, when non-nil, is invoked after each round with the
	// 1-based number of the round just completed (matching the
	// iteration numbers recorded in Series) and the maximal relative
	// local error it ended with.
	AfterRound func(round int, maxErr float64)
	// StallRounds, when > 0, stops the run early if the maximal error
	// has not improved for that many consecutive rounds — the "run to
	// convergence" criterion for the accuracy experiments (Figs. 3/6)
	// where the achievable floor, not a preset ε, is the measurement.
	StallRounds int
	// Resume, when non-nil, continues a run previously interrupted at a
	// checkpoint: the loop starts at Resume.RoundsDone and the stall
	// counter, best error and recorded series pick up where they left
	// off. The engine must have been Restored to the matching snapshot
	// (its round counter equal to Resume.RoundsDone); the resumed run is
	// then bit-identical to the uninterrupted one.
	Resume *RunState
	// CheckpointEvery, when > 0 and OnCheckpoint is set, invokes
	// OnCheckpoint after every CheckpointEvery-th completed round
	// (except the final one — a finished run needs no checkpoint).
	CheckpointEvery int
	// OnCheckpoint receives the engine (at a round boundary, ready for
	// Snapshot) and the RunState that, passed back via Resume after
	// restoring the matching snapshot, continues the run. The RunState's
	// Series aliases the live result series — persist it before
	// returning.
	OnCheckpoint func(e *Engine, rs RunState)
}

// RunState is the loop state of a Run at a checkpoint, the companion of
// an engine Snapshot: the snapshot restores the engine, the RunState
// restores the Run bookkeeping around it.
type RunState struct {
	// RoundsDone is the number of rounds completed when the checkpoint
	// was taken (the engine's round counter at snapshot time).
	RoundsDone int
	// Stalled is the StallRounds counter.
	Stalled int
	// BestMax is the best maximal error observed so far.
	BestMax float64
	// Series is the recorded error series so far (when Record is set).
	Series stats.Series
}

// Result summarizes a Run.
type Result struct {
	// Series holds one point per round when RunConfig.Record is set,
	// otherwise only the final point.
	Series stats.Series
	// Rounds is the number of rounds executed.
	Rounds int
	// Converged reports whether the Eps criterion was met.
	Converged bool
	// BestMax is the smallest maximal local error observed at any
	// recorded round.
	BestMax float64
}

// Run executes rounds until MaxRounds, the Eps criterion, or the stall
// criterion is reached.
func (e *Engine) Run(cfg RunConfig) Result {
	if cfg.MaxRounds <= 0 {
		panic("sim: RunConfig.MaxRounds must be positive")
	}
	res := Result{BestMax: math.Inf(1)}
	stalled := 0
	start := 0
	if cfg.Resume != nil {
		start = cfg.Resume.RoundsDone
		stalled = cfg.Resume.Stalled
		res.BestMax = cfg.Resume.BestMax
		res.Series = append(res.Series, cfg.Resume.Series...)
		res.Rounds = start
	}
	for r := start; r < cfg.MaxRounds; r++ {
		if cfg.OnRound != nil {
			cfg.OnRound(e, e.round)
		}
		e.Step()
		errs := e.Errors()
		maxErr := stats.Max(errs)
		if e.rec.Due(e.round) {
			e.observe(errs)
		}
		if cfg.Record {
			e.recordPoint(&res.Series, errs)
		}
		if cfg.AfterRound != nil {
			cfg.AfterRound(e.round, maxErr)
		}
		if maxErr < res.BestMax {
			res.BestMax = maxErr
			stalled = 0
		} else {
			stalled++
		}
		res.Rounds = r + 1
		if cfg.Eps > 0 && maxErr <= cfg.Eps {
			res.Converged = true
			if !cfg.Record {
				e.recordPoint(&res.Series, errs)
			}
			if e.rec != nil && e.rec.LastRound() != e.round {
				e.observe(errs)
			}
			return res
		}
		if cfg.CheckpointEvery > 0 && cfg.OnCheckpoint != nil && (r+1)%cfg.CheckpointEvery == 0 && r+1 < cfg.MaxRounds {
			cfg.OnCheckpoint(e, RunState{RoundsDone: r + 1, Stalled: stalled, BestMax: res.BestMax, Series: res.Series})
		}
		if cfg.StallRounds > 0 && stalled >= cfg.StallRounds {
			break
		}
	}
	errs := e.Errors()
	if !cfg.Record {
		e.recordPoint(&res.Series, errs)
	}
	if e.rec != nil && e.rec.LastRound() != e.round {
		e.observe(errs)
	}
	return res
}

// recordPoint appends one ErrorPoint to s without the per-call
// copy-and-sort allocation of stats.Series.Record: the engine keeps one
// median scratch buffer and re-sorts it in place. The recorded values
// are bit-identical to Series.Record's (same max scan, same sort, same
// interpolation).
func (e *Engine) recordPoint(s *stats.Series, errs []float64) {
	e.medBuf = append(e.medBuf[:0], errs...)
	sort.Float64s(e.medBuf)
	*s = append(*s, stats.ErrorPoint{
		Iteration: e.round,
		Max:       stats.Max(errs),
		Median:    stats.QuantileSorted(e.medBuf, 0.5),
	})
}

func linkKey(i, j int) [2]int {
	if i < j {
		return [2]int{i, j}
	}
	return [2]int{j, i}
}

// linkSet is a set of undirected links that also counts each node's
// incident members. unreachable runs once per message; with the counts
// it hashes only the messages of nodes that have a member link, which
// under a handful of faults is a handful of nodes.
type linkSet struct {
	m     map[[2]int]struct{} // members, keyed by linkKey
	count []int32             // per-node incident members; nil until the first add
}

// has reports whether the link (i, j) is a member.
func (s *linkSet) has(i, j int) bool {
	_, ok := s.m[linkKey(i, j)]
	return ok
}

// touches reports whether node i has an incident member.
func (s *linkSet) touches(i int) bool { return i < len(s.count) && s.count[i] > 0 }

// add inserts the link (i, j); a no-op for a member.
func (s *linkSet) add(i, j int) {
	key := linkKey(i, j)
	if _, ok := s.m[key]; ok {
		return
	}
	if s.m == nil {
		s.m = make(map[[2]int]struct{})
	}
	s.m[key] = struct{}{}
	for len(s.count) <= key[1] {
		s.count = append(s.count, 0)
	}
	s.count[i]++
	s.count[j]++
}

// remove deletes the link (i, j); a no-op for a non-member.
func (s *linkSet) remove(i, j int) {
	key := linkKey(i, j)
	if _, ok := s.m[key]; !ok {
		return
	}
	delete(s.m, key)
	s.count[i]--
	s.count[j]--
}

// reset empties the set, keeping its allocations.
func (s *linkSet) reset() {
	clear(s.m)
	clear(s.count)
}
