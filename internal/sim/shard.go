package sim

// The round executor, shared by both round models.
//
// Every engine holds one shardState: the node shards, their message free
// lists, outbox buckets, keepalive counters, staged trace events and
// error-scan scratch. A sequential engine (no WithShards/WithPartition)
// has one shard holding every node; WithShards(P) or WithPartition
// switches to the *phase-split* model, designed to parallelize across P
// node shards while producing byte-identical results for every shard
// count (including P=1) and every shard layout. Both models run the
// same node body (activate) and differ only in activation order,
// push-target stream and where emit sends a message (sim.go).
//
// A phase-split round (stepSharded) has two phases:
//
//	Phase 1 (parallel, one worker per shard): every live node, in
//	ascending id order within its shard, is activated: it drains the
//	inbox it was left with at the end of the previous round, runs its
//	failure detector, and pushes one message toward a random live
//	neighbor drawn from the node's own splitmix64 stream. Each outgoing
//	message is routed into the per-(source shard → destination shard)
//	outbox bucket bucket[s][d]; nothing is delivered yet.
//
//	Phase 2 (parallel): delivery. One delivery task per DESTINATION
//	shard runs on the same worker pool (a second WaitGroup barrier per
//	round). Task d walks its P source buckets in ascending global
//	source id order — trivially on contiguous layouts, via a k-way
//	head merge on arbitrary partitions — and routes each message
//	through the usual dead/silenced/alive checks and the per-link loss
//	streams into its destination inbox, to be processed next round.
//
// Why this is invariant under both P and the shard layout: during phase
// 1 a node reads and writes only its own state (protocol, detector, RNG
// stream, frozen inbox), so the activation interleaving across shards is
// unobservable; and during phase 2 a delivery task touches only state
// owned by its destination shard — the inboxes of its own nodes, its own
// free list and counter bank, and the loss streams of directed links
// INTO its shard — so tasks are pairwise disjoint and running them in
// any order (or inline, in sequence, on a one-CPU host) produces the
// same bytes. The only cross-task question is per-inbox message order,
// and that is fixed by construction: a node sends at most one message
// per neighbor per round (the data send marks the link via noteSent, so
// the keepalive interval check skips it, and probes target suspects,
// which are disjoint from live neighbors), hence every inbox receives
// messages from DISTINCT sources, delivered in ascending global source
// id order — the only order any consumer can observe. Per-link loss
// draws come from per-directed-link splitmix64 streams (membership.go),
// so reordering draws across links cannot change any link's own
// sequence. The per-node RNG streams are derived from (seed, node id)
// alone, so the communication schedule itself is layout-independent.
//
// Stateful interceptors (fault.Loss, fault.BitFlip advance private RNGs
// per Intercept call) need one canonical call order: interceptor rounds
// add a serial pass after delivery (interceptRound) over inboxes in
// ascending destination id, each in its ascending-source arrival order —
// node-id keys, so the call sequence is the same for every P and layout.
//
// Parallelism uses a persistent worker pool: the first parallel round
// starts P−1 worker goroutines that block on a task channel; each round
// the caller dispatches one task per shard (running shard 0 itself) —
// once for phase 1, once for delivery — and the WaitGroup barrier joins
// each phase. Workers live until Engine.Close — or, for abandoned
// engines, until a GC cleanup reclaims them — so steady-state rounds pay
// two channel operations per shard per phase instead of a goroutine
// spawn.
//
// The phase-split model is deliberately NOT schedule-compatible with the
// sequential one: sequential activation delivers a message sent earlier
// in a round to a node activated later in the *same* round, a dependency
// chain through the activation permutation (plus a single global RNG
// stream) that cannot be parallelized bit-exactly. Sequential engines
// keep that schedule — golden files recorded against it stay valid —
// while phase-split engines trade same-round delivery for next-round
// delivery, which is the standard synchronous gossip model and
// converges at the same asymptotic rate (each exchange just spans a
// round boundary). See DESIGN.md for the full argument.

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/topology"
)

// WithShards runs the engine's rounds in the deterministic phase-split
// model over p contiguous node shards (p ≥ 1). Results are byte-identical
// for every p — the shard count only selects how much of phase 1 runs
// concurrently — so p is purely a performance knob: p=1 for strictly
// serial execution with the same semantics, p≈GOMAXPROCS for large
// topologies. Activation is ascending by id within each shard, and
// unobservable anyway since deliveries happen between rounds.
func WithShards(p int) EngineOption {
	if p < 1 {
		panic(fmt.Sprintf("sim: WithShards requires p >= 1, got %d", p))
	}
	return func(e *Engine) { e.shards = p; e.partition = nil }
}

// WithPartition runs the phase-split model over an explicit shard
// layout, e.g. topology.CacheAware's minimized-cut grouping. The layout
// is a pure performance knob: any valid partition of the engine's graph
// produces byte-identical results to WithShards(len(pt.Shards)) — the
// merge order is ascending global id either way — so goldens, snapshots
// and differential suites carry over unchanged. The partition must be a
// disjoint exact cover of the graph's nodes in ascending order per
// shard (topology.Partition.Validate; New panics otherwise).
func WithPartition(pt *topology.Partition) EngineOption {
	if pt == nil || len(pt.Shards) == 0 {
		panic("sim: WithPartition requires a non-empty partition")
	}
	return func(e *Engine) { e.shards = len(pt.Shards); e.partition = pt }
}

// WithPhaseLabels wraps every pooled-worker task in runtime/pprof labels
// (phase=activate|deliver|errors|observe, shard=<s>), so a -cpuprofile
// taken of a sharded run attributes samples to phases and shards.
// Opt-in because pprof.Do allocates per task — the default hot path
// stays allocation-free (TestShardedRoundAllocFree).
func WithPhaseLabels() EngineOption {
	return func(e *Engine) { e.phaseLabels = true }
}

// Shards returns the configured shard count (0 when the engine runs the
// sequential model).
func (e *Engine) Shards() int {
	if e.seq {
		return 0
	}
	return e.shards
}

// shardState holds the executor state of both round models; the
// sequential model uses one shard and leaves the buckets, merge cursors
// and interception scratch empty. Everything a phase task writes lives
// in its shard's padded local block; the shared slices here are
// read-only inside a phase.
type shardState struct {
	nodes    [][]int32 // per-shard ascending node-id lists
	shardOf  []int32   // node id → shard index
	nodeRNG  []uint64  // per-node splitmix64 state
	contig   bool      // concatenated shard lists == 0..n−1 (merge fast path)
	baseLast int       // len(nodes[last]) before any joins (dropMembership rewind)

	local  []shardLocal // per-shard phase-written state, one padded block each
	cursor []int        // per-shard merge cursors (serial merges, non-contiguous layouts)

	cut   []int             // interceptRound: per-node inbox length before delivery
	extra []*gossip.Message // interceptRound: Injector messages, appended after the pass

	surplus []*gossip.Message // rebalancePools scratch

	// phase1Task, deliverTask, errorsTask and observeTask are the bound
	// method values handed to runShards. Bound once at init: creating a
	// method value or closure at the call site would heap-allocate per
	// call (the func escapes through labeled and the pool's task
	// channel), and TestShardedRoundAllocFree pins the sharded round at
	// zero allocations.
	phase1Task  func(int)
	deliverTask func(int)
	errorsTask  func(int)
	observeTask func(int)
	observeErrs bool // observeTask also scans the oracle errors (Observe)

	workers *workerPool // persistent phase-1 workers; nil until first parallel round
}

// cacheLine is the coherence granule the shard blocks are padded to.
const cacheLine = 64

// shardWrites is what shard s's phase tasks write: its phase-1 worker
// (free list, outbox row, keepalive count, staged events), its phase-2
// delivery task (free list, merge cursors), its errors task (errs,
// est) and its observe task (errs, est, mass, antiSym). Shards write
// these concurrently, so two shards' copies must never share a cache
// line — see shardLocal.
type shardWrites struct {
	pool []*gossip.Message // message free list

	// bucket[d] holds this shard's sends to destinations owned by shard
	// d, in emission (ascending source id) order — the routed form that
	// lets delivery run one task per destination shard. Truncated
	// serially after delivery, so delivery tasks only read it.
	bucket [][]*gossip.Message

	keep   int   // keepalive counter, folded at the barrier
	misses int   // free-list misses since the last rebalancePools
	dcur   []int // this shard's k-way merge cursors as a delivery destination

	errs []float64 // Errors scratch
	est  []float64 // estimate scratch

	mass    gossip.Value // observe: header of the node's row in the mass scratch
	antiSym int          // observe: this shard's anti-symmetry violations

	// events stages trace events emitted during phase 1 (detector
	// evictions, reintegrations); they are flushed into the recorder's
	// ring at merge time in ascending node order, so the recorded
	// sequence is identical for every shard count and layout.
	events []metrics.Event
}

// shardLocal pads a shard's write set to whole cache lines, like
// metrics.Bank, so adjacent shards' blocks never share a line: without
// it the shards' phase tasks serialize through the coherence protocol.
// The pad is never zero (every field is word-sized, so it is 8–64
// bytes), which also absorbs the allocator's 8-byte header on large
// pointerful slices.
type shardLocal struct {
	shardWrites
	_ [cacheLine - unsafe.Sizeof(shardWrites{})%cacheLine]byte
}

// lineCap rounds a scratch capacity up to a multiple of 8 elements: for
// 8-byte elements and 24-byte slice headers alike that fills whole cache
// lines, so the backing array (allocated in its own size class) shares
// no line with another shard's.
func lineCap(n int) int { return (n + 7) &^ 7 }

// workerPool is the persistent goroutine pool behind parallel phase-1
// execution: size-fixed, fed through a buffered task channel, joined at
// the round barrier via wg. It holds no engine reference of its own —
// tasks are closures — so a GC cleanup can shut it down once its engine
// is unreachable.
type workerPool struct {
	tasks chan shardTask
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

// shardTask is one fan-out work item. fl is nil unless the flight
// recorder is on; when set, the worker times t.f and records the span
// under (ph, round). The extra fields cost one struct copy through the
// buffered channel either way — the timing-off path never branches
// past the nil check.
type shardTask struct {
	f     func(int)
	s     int
	fl    *flight
	ph    metrics.Phase
	round int
}

func newWorkerPool(workers int) *workerPool {
	w := &workerPool{tasks: make(chan shardTask, workers), stop: make(chan struct{})}
	for k := 0; k < workers; k++ {
		// Worker ids 1..workers: the caller goroutine is track 0 of the
		// flight recorder's timeline.
		go w.run(k + 1)
	}
	return w
}

func (w *workerPool) run(id int) {
	for {
		select {
		case t := <-w.tasks:
			if t.fl == nil {
				t.f(t.s)
			} else {
				start := time.Now()
				t.f(t.s)
				t.fl.task(id, t.ph, t.s, t.round, start)
			}
			w.wg.Done()
		case <-w.stop:
			return
		}
	}
}

func (w *workerPool) close() { w.once.Do(func() { close(w.stop) }) }

// Close releases the engine's worker goroutines (started lazily by the
// first parallel round). Optional: an unreachable engine's pool is
// closed by a GC cleanup, and a closed engine restarts its pool on the
// next parallel round — Close is for callers that want deterministic
// goroutine lifetimes (tests, long-lived processes cycling engines).
func (e *Engine) Close() {
	if e.shard.workers != nil {
		e.shard.workers.close()
		e.shard.workers = nil
	}
}

// labeled wraps a per-shard task in runtime/pprof labels when the
// engine was built WithPhaseLabels; otherwise it returns f unchanged
// (zero cost on the default path).
func (e *Engine) labeled(phase string, f func(int)) func(int) {
	if !e.phaseLabels {
		return f
	}
	return func(s int) {
		pprof.Do(context.Background(),
			pprof.Labels("phase", phase, "shard", strconv.Itoa(s)),
			func(context.Context) { f(s) })
	}
}

// runShards executes f(s) for every shard, tagged with the given pprof
// phase label when enabled. With one shard or one available CPU it runs
// inline in ascending shard order (identical results — every phase is
// order-independent across shards); otherwise shards 1..p−1 are
// dispatched to the persistent pool while the caller runs shard 0, and
// the WaitGroup barrier joins the phase.
//
// With the flight recorder attached (e.flight != nil) every task is
// timed by its runner, and the caller additionally records its barrier
// wait and the fan-out's wall-clock; timing changes no dispatch or
// merge order, so results stay byte-identical with it on.
func (e *Engine) runShards(phase string, ph metrics.Phase, f func(int)) {
	p := e.shards
	f = e.labeled(phase, f)
	fl := e.flight
	if p == 1 || runtime.GOMAXPROCS(0) == 1 {
		if fl == nil {
			for s := 0; s < p; s++ {
				f(s)
			}
			return
		}
		wall := time.Now()
		for s := 0; s < p; s++ {
			start := time.Now()
			f(s)
			fl.task(0, ph, s, e.round, start)
		}
		fl.wall(ph, e.round, wall)
		return
	}
	w := e.shard.workers
	if w == nil {
		w = newWorkerPool(p - 1)
		e.shard.workers = w
		// Reclaim the pool when the engine is dropped without Close. The
		// cleanup must not reference e (it would never become unreachable);
		// the pool itself holds no engine reference.
		runtime.AddCleanup(e, func(pw *workerPool) { pw.close() }, w)
	}
	w.wg.Add(p - 1)
	if fl == nil {
		for s := 1; s < p; s++ {
			w.tasks <- shardTask{f: f, s: s}
		}
		f(0)
		w.wg.Wait()
		return
	}
	wall := time.Now()
	for s := 1; s < p; s++ {
		w.tasks <- shardTask{f: f, s: s, fl: fl, ph: ph, round: e.round}
	}
	start := time.Now()
	f(0)
	fl.task(0, ph, 0, e.round, start)
	start = time.Now()
	w.wg.Wait()
	fl.barrier(ph, e.round, start)
	fl.wall(ph, e.round, wall)
}

// initShards builds the shard structures; called from New.
func (e *Engine) initShards(seed int64) {
	n := e.graph.N()
	if e.partition != nil {
		if err := e.partition.Validate(e.graph); err != nil {
			panic(err)
		}
		e.shards = len(e.partition.Shards)
	} else if e.shards > n && n > 0 {
		e.shards = n // more workers than nodes is pure overhead
	}
	p := e.shards
	ss := &shardState{
		nodes:   make([][]int32, p),
		shardOf: make([]int32, n),
		nodeRNG: make([]uint64, n),
		local:   make([]shardLocal, p),
		cursor:  make([]int, p),
	}
	for s := range ss.local {
		l := &ss.local[s]
		l.bucket = make([][]*gossip.Message, p, lineCap(p))
		l.dcur = make([]int, p, lineCap(p))
		l.est = make([]float64, e.width, lineCap(e.width))
	}
	if e.partition != nil {
		for s, list := range e.partition.Shards {
			// Private copies: joins append to the last shard's list, which
			// must not scribble on the caller's (possibly shared) partition.
			ss.nodes[s] = append(make([]int32, 0, len(list)), list...)
		}
	} else {
		backing := make([]int32, n)
		for i := range backing {
			backing[i] = int32(i)
		}
		for s := 0; s < p; s++ {
			lo, hi := s*n/p, (s+1)*n/p
			ss.nodes[s] = backing[lo:hi:hi]
		}
	}
	prev := int32(-1)
	ss.contig = true
	for s := 0; s < p; s++ {
		for _, i := range ss.nodes[s] {
			ss.shardOf[i] = int32(s)
			if i != prev+1 {
				ss.contig = false
			}
			prev = i
		}
	}
	ss.baseLast = len(ss.nodes[p-1])
	// Pre-size the inboxes for the expected per-round load (one data
	// message in expectation, Poisson tail, plus keepalives from every
	// neighbor under a detector): without this, millions of nodes keep
	// discovering new inbox high-water marks for thousands of rounds and
	// the steady state never becomes allocation-free.
	for i := range e.inbox {
		want := 8
		if e.det != nil {
			want += e.graph.Degree(i)
		}
		if cap(e.inbox[i]) < want {
			e.inbox[i] = make([]*gossip.Message, 0, want)
		}
	}
	ss.phase1Task = e.shardPhase1
	ss.deliverTask = e.deliverShard
	ss.errorsTask = e.errorsShard
	ss.observeTask = e.observeShard
	e.shard = ss
	e.seedNodeRNG(seed)
}

// splitmix64 constants (Steele, Lea & Flood, OOPSLA 2014).
const (
	smixGamma = 0x9E3779B97F4A7C15 // golden-ratio increment
	smixMul1  = 0xBF58476D1CE4E5B9
	smixMul2  = 0x94D049BB133111EB
)

// mix64 is the splitmix64 output function: a bijective avalanche mix.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * smixMul1
	z = (z ^ (z >> 27)) * smixMul2
	return z ^ (z >> 31)
}

// seedNodeRNG derives every node's stream state from (seed, id) alone —
// never from shard layout — so the whole communication schedule is a
// pure function of the engine seed. The same derivation idiom as
// experiments.deriveSeed: decorrelate the lattice of inputs through one
// extra mix round.
func (e *Engine) seedNodeRNG(seed int64) {
	for i := range e.shard.nodeRNG {
		e.shard.nodeRNG[i] = mix64(uint64(seed) ^ (uint64(i)+1)*0x632BE59BD9B4E019)
	}
}

// draw returns a uniform value in [0, n) from node i's stream: advance
// by the splitmix64 gamma, mix, then map into range with a 64-bit
// multiply-shift (Lemire) — no divisions, bias below 2⁻⁴⁰ for any
// realistic degree.
func (e *Engine) draw(i, n int) int {
	e.shard.nodeRNG[i] += smixGamma
	hi, _ := bits.Mul64(mix64(e.shard.nodeRNG[i]), uint64(n))
	return int(hi)
}

// stepSharded executes one phase-split round: phase 1 on the worker
// pool (inline when it cannot actually run in parallel — exact same
// results without the dispatch cost), then delivery — parallel, one
// task per destination shard, on the same pool — followed by the serial
// interception pass when an interceptor is installed.
func (e *Engine) stepSharded() {
	fl := e.flight
	var roundStart time.Time
	if fl != nil {
		roundStart = time.Now()
		// The round mark is what places the event ring's round-stamped
		// instant events (faults, churn, snapshots, evictions) on the
		// timeline's time axis.
		fl.tl.MarkRound(e.round, roundStart)
	}
	e.inPhase1 = true
	e.runShards("activate", metrics.PhaseActivate, e.shard.phase1Task)
	e.inPhase1 = false
	e.foldKeepalives()
	if e.interceptor != nil {
		e.shard.cut = e.shard.cut[:0]
		for _, in := range e.inbox {
			e.shard.cut = append(e.shard.cut, len(in))
		}
	}
	e.deliverRound()
	if e.interceptor != nil {
		if fl == nil {
			e.interceptRound()
		} else {
			start := time.Now()
			e.interceptRound()
			fl.serial(metrics.PhaseMerge, e.round, start)
		}
	}
	if fl == nil {
		e.flushShardEvents()
	} else {
		start := time.Now()
		e.flushShardEvents()
		fl.serial(metrics.PhaseFlush, e.round, start)
	}
	e.rebalancePools()
	if fl != nil {
		fl.serial(metrics.PhaseRound, e.round, roundStart)
	}
	e.round++
}

// foldKeepalives folds the per-shard keepalive counters into the engine
// total at the end of a round.
func (e *Engine) foldKeepalives() {
	for s := range e.shard.local {
		e.keepalives += e.shard.local[s].keep
		e.shard.local[s].keep = 0
	}
}

// shardPhase1 activates every live node in shard s, in ascending id
// order.
func (e *Engine) shardPhase1(s int) { e.activate(e.shard.nodes[s], s) }

// deliverRound is the parallel phase 2: one delivery task per
// destination shard, dispatched onto the worker pool (the tasks touch
// pairwise-disjoint state, so any order gives the same bytes). The
// outbox rows belong to their source shards' blocks, so they are
// truncated here, after the barrier, rather than by the delivery tasks
// that read them.
func (e *Engine) deliverRound() {
	e.runShards("deliver", metrics.PhaseDeliver, e.shard.deliverTask)
	for s := range e.shard.local {
		row := e.shard.local[s].bucket
		for d := range row {
			row[d] = row[d][:0]
		}
	}
}

// deliverShard routes every message destined for shard d's nodes into
// their inboxes, in ascending global source id order. On contiguous
// layouts that order is "shard 0's bucket[d], then shard 1's, …"; on an
// arbitrary partition the task k-way-merges its P source buckets by
// smallest head source id (no ties — each source lives in exactly one
// shard), draining each node's run of sends in emission order. Writes
// only destination-shard-owned state: inboxes of d's nodes, block d
// (pool, cursors), counter bank d, and the streams of directed links
// into d.
func (e *Engine) deliverShard(d int) {
	local := e.shard.local
	if e.shard.contig {
		for s := range local {
			for _, m := range local[s].bucket[d] {
				e.routeDeliver(m, d)
			}
		}
		return
	}
	cur := local[d].dcur
	clear(cur)
	last := -1
	for {
		best, bestFrom := -1, 0
		for s := range local {
			col := local[s].bucket[d]
			if cur[s] < len(col) && (best < 0 || col[cur[s]].From < bestFrom) {
				best, bestFrom = s, col[cur[s]].From
			}
		}
		if best < 0 {
			break
		}
		if bestFrom < last {
			panic(fmt.Sprintf("sim: bucket (%d→%d) out of source id order (%d after %d)", best, d, bestFrom, last))
		}
		last = bestFrom
		col := local[best].bucket[d]
		for cur[best] < len(col) && col[cur[best]].From == bestFrom {
			e.routeDeliver(col[cur[best]], d)
			cur[best]++
		}
	}
}

// routeDeliver applies the send-path semantics (link-failure table,
// silencing, crash check, per-link loss) to one message of delivery
// task d. Dropped messages recycle into the task's own free list — the
// pool the message would have been drained into had it been delivered —
// so pool occupancy stays P-independent with no cross-task traffic.
// With an interceptor installed, delivery is provisional: interceptRound
// decides and counts each arrival's fate.
func (e *Engine) routeDeliver(msg *gossip.Message, d int) {
	// Per-link heterogeneous loss (drawn only for reachable messages):
	// each directed link draws from its own splitmix64 stream, touched
	// only by the destination shard's task, so the draw sequence per link
	// — the only sequence that matters — is identical for every shard
	// count, layout and delivery order.
	if e.unreachable(msg) || (e.lossRates != nil && e.lossDrop(msg.From, msg.To)) {
		e.rec.Bank(d).Inc(metrics.MsgsLost)
		e.putMsg(d, msg)
		return
	}
	if e.interceptor == nil {
		e.rec.Bank(d).Inc(metrics.MsgsDelivered)
	}
	e.inbox[msg.To] = append(e.inbox[msg.To], msg)
}

// flushShardEvents moves phase-1-staged trace events into the
// recorder's ring in ascending emitting-node order — the same k-way
// merge as delivery, so the recorded stream is identical for every
// shard count and layout.
func (e *Engine) flushShardEvents() {
	local := e.shard.local
	total := 0
	for s := range local {
		total += len(local[s].events)
	}
	if total == 0 {
		return
	}
	if e.shard.contig {
		for s := range local {
			if len(local[s].events) > 0 {
				e.rec.RecordEvents(local[s].events)
			}
		}
	} else {
		// K-way merge by smallest head emitting-node id: a node's events
		// are consecutive in its shard's buffer (phase 1 activates
		// ascending), so draining each head run walks the events once
		// instead of scanning every node id per round.
		cur := e.shard.cursor
		clear(cur)
		for {
			best, bestA := -1, 0
			for s := range local {
				evs := local[s].events
				if cur[s] < len(evs) && (best < 0 || evs[cur[s]].A < bestA) {
					best, bestA = s, evs[cur[s]].A
				}
			}
			if best < 0 {
				break
			}
			evs := local[best].events
			for cur[best] < len(evs) && evs[cur[best]].A == bestA {
				e.rec.RecordEvent(evs[cur[best]])
				cur[best]++
			}
		}
	}
	for s := range local {
		local[s].events = local[s].events[:0]
	}
}

// rebalancePools refills and evens out the per-shard free lists after
// the merge. Messages recycle into their *destination* shard's pool, so
// asymmetric cross-shard traffic slowly starves some pools while others
// grow; a starved pool allocates a fresh message for every send.
// Skimming the surplus above the mean back onto the poorer pools costs
// a few pointer moves per round. Evening out alone is not enough: a
// round that missed anywhere (the first one, and any later round whose
// deficit beat every earlier one) tops the pools up first, see
// topUpPools. Pool identity never influences results (a reused message
// is fully overwritten before delivery), so this is invisible to the
// byte-identical-across-P guarantee.
func (e *Engine) rebalancePools() {
	local := e.shard.local
	p := len(local)
	missed := 0
	for s := range local {
		missed += local[s].misses
		local[s].misses = 0
	}
	if missed > 0 {
		e.topUpPools()
	}
	if p == 1 {
		return
	}
	total := 0
	for s := range local {
		total += len(local[s].pool)
	}
	target := total / p
	surplus := e.shard.surplus[:0]
	for s := range local {
		for len(local[s].pool) > target+1 {
			l := len(local[s].pool) - 1
			surplus = append(surplus, local[s].pool[l])
			local[s].pool[l] = nil
			local[s].pool = local[s].pool[:l]
		}
	}
	for s := 0; s < p && len(surplus) > 0; s++ {
		for len(local[s].pool) <= target && len(surplus) > 0 {
			l := len(surplus) - 1
			local[s].pool = append(local[s].pool, surplus[l])
			surplus[l] = nil
			surplus = surplus[:l]
		}
	}
	e.shard.surplus = surplus[:0]
}

// topUpPools adds poolHeadroom(len(shard)) fresh messages to every
// shard's free list, each shard's batch carved out of one message array
// and one flow backing array. A pool must cover its shard's sends that
// come before the matching receipts in activation order: a walk over
// the shard's m activations, one send against a random number of
// receipts each, whose excursions scale with √m. Topping up only when a
// round missed keeps the margin past the deepest excursion seen so far,
// so a later miss needs a record excursion beyond it — in practice the
// first round's top-up is the last allocation. The shard's routing
// buckets, whose per-round counts fluctuate on the same scale, get the
// same margin over their capacity so far, and the pool and surplus
// slices room for every spare message.
func (e *Engine) topUpPools() {
	local := e.shard.local
	w := e.width
	spare := 0
	for s := range local {
		spare += len(local[s].pool) + poolHeadroom(len(e.shard.nodes[s]))
	}
	for s := range local {
		h := poolHeadroom(len(e.shard.nodes[s]))
		msgs := make([]gossip.Message, h)
		flows := make([]float64, 2*h*w)
		pool := slices.Grow(local[s].pool, spare)
		for k := range msgs {
			x := flows[2*k*w : 2*(k+1)*w : 2*(k+1)*w]
			msgs[k].Flow1.X = x[:w:w]
			msgs[k].Flow2.X = x[w:]
			pool = append(pool, &msgs[k])
		}
		local[s].pool = pool
		for d, col := range local[s].bucket {
			local[s].bucket[d] = slices.Grow(col[:0], cap(col)+h)
		}
	}
	e.shard.surplus = slices.Grow(e.shard.surplus[:0], spare)
}

// poolHeadroom is the number of spare messages a top-up gives a shard of
// m nodes: three times √m, the scale of its per-round deficit walk.
func poolHeadroom(m int) int { return 3 * (int(math.Sqrt(float64(m))) + 1) }

// interceptRound is the serial interception pass of an interceptor
// round: inboxes in ascending destination id, each one's arrivals past
// cut[i] (a hung node's older messages were intercepted on arrival) in
// their delivered ascending-source order. Vetoed messages recycle into
// the destination shard's pool; Injector messages are appended after
// the pass, so they are never intercepted.
func (e *Engine) interceptRound() {
	inj, _ := e.interceptor.(Injector)
	extra := e.shard.extra
	for i, lo := range e.shard.cut {
		in := e.inbox[i]
		hi := len(in)
		d := e.owner(i)
		// Survivors are appended past hi, then slid down over the arrivals.
		for k := lo; k < hi; k++ {
			m := in[k]
			copies := e.intercept(m)
			if copies == 0 {
				e.putMsg(d, m)
			}
			for c := 0; c < copies; c++ {
				if c == 0 {
					in = append(in, m)
				} else {
					in = append(in, e.cloneMsg(m, d))
				}
			}
			if inj != nil {
				for _, x := range inj.Extra(e.round) {
					if !e.unreachable(&x) {
						extra = append(extra, e.cloneMsg(&x, e.owner(x.To)))
					}
				}
			}
		}
		e.inbox[i] = in[:lo+copy(in[lo:], in[hi:])]
	}
	for _, m := range extra {
		e.inbox[m.To] = append(e.inbox[m.To], m)
	}
	clear(extra)
	e.shard.extra = extra[:0]
}

// clearRoundState recycles anything a round left in the outbox buckets
// and drops the per-shard keepalive counters and staged trace events —
// per-trial state that Reset and Restore must not carry over.
func (e *Engine) clearRoundState() {
	for s := range e.shard.local {
		l := &e.shard.local[s]
		for d, col := range l.bucket {
			for _, m := range col {
				e.putMsg(s, m)
			}
			l.bucket[d] = col[:0]
		}
		l.keep = 0
		l.events = l.events[:0]
	}
}

// errorsShard refills shard s's Errors scratch with the worst relative
// error of every alive node in the shard, in ascending id order.
func (e *Engine) errorsShard(s int) {
	l := &e.shard.local[s]
	l.errs = l.errs[:0]
	for _, i32 := range e.shard.nodes[s] {
		if i := int(i32); e.alive[i] {
			l.errs = append(l.errs, e.nodeErr(i, l))
		}
	}
}

// nodeErr returns node i's worst relative error, using shard block l's
// estimate scratch.
func (e *Engine) nodeErr(i int, l *shardLocal) float64 {
	if ip, ok := e.protos[i].(gossip.Estimator); ok {
		l.est = ip.EstimateInto(l.est)
		return e.worstErr(l.est)
	}
	return e.worstErr(e.protos[i].Estimate())
}
