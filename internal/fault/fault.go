// Package fault provides the failure models of the paper's Section II:
// soft errors (message loss, duplication, bit flips in message payloads)
// injected on the wire, and permanent failures (link and node) injected
// on a schedule. Soft-error injectors implement sim.Interceptor and
// compose with any protocol; permanent failures are driven through
// sim.Engine.FailLink / CrashNode via the Plan type.
//
// Beyond the paper's notified failures, Plan also schedules the
// oracle-free events of the detection layer: silent link outages
// (SilentLinkFailure / LinkOutage), silent node crashes
// (SilentNodeCrash) and transient node freezes (NodeHang / NodeOutage),
// plus checkpoint-restart and open-world churn (joins, graceful leaves,
// rewires, per-link loss). Plan.OnRound plugs the schedule into the
// round simulator.
//
// All injectors are deterministic given their seed, so every faulty
// experiment in this repository is exactly reproducible.
package fault

import (
	"math"
	"math/rand"
	"sort"

	"pcfreduce/internal/gossip"
	"pcfreduce/internal/sim"
)

// Loss drops each message independently with probability P.
type Loss struct {
	P   float64
	rng *rand.Rand
}

// NewLoss returns a seeded message-loss injector.
func NewLoss(p float64, seed int64) *Loss {
	if p < 0 || p > 1 {
		panic("fault: loss probability out of [0,1]")
	}
	return &Loss{P: p, rng: rand.New(rand.NewSource(seed))}
}

// Intercept implements sim.Interceptor.
func (l *Loss) Intercept(round int, msg *gossip.Message) bool {
	return l.rng.Float64() >= l.P
}

// BitFlip flips one uniformly chosen bit in the float64 payload of each
// message independently with probability P — the soft-error model of the
// paper's introduction ("soft errors like bit flips"). Only payload
// floats (Flow1/Flow2 data and weights) are hit; protocols must already
// tolerate arbitrary payload corruption.
//
// With Bounded set, only mantissa and sign bits are flipped, bounding
// the corruption magnitude to at most 2× the original value. Unbounded
// flips include exponent bits, which can turn a payload into NaN/Inf
// (detectable — the protocols discard such messages) or into a finite
// value hundreds of orders of magnitude off; the latter is conserved as
// a giant mass transfer whose floating-point residue no averaging
// algorithm can fully re-absorb, so real deployments pair the algorithms
// with message checksums or range screening. EXP-E measures both
// regimes.
type BitFlip struct {
	P float64
	// Bounded restricts flips to mantissa and sign bits.
	Bounded bool
	rng     *rand.Rand
	// Flips counts injected flips, for test assertions.
	Flips int
}

// NewBitFlip returns a seeded full-range (all 64 bits) flip injector.
func NewBitFlip(p float64, seed int64) *BitFlip {
	if p < 0 || p > 1 {
		panic("fault: bit-flip probability out of [0,1]")
	}
	return &BitFlip{P: p, rng: rand.New(rand.NewSource(seed))}
}

// NewBoundedBitFlip returns a seeded injector restricted to mantissa and
// sign bits.
func NewBoundedBitFlip(p float64, seed int64) *BitFlip {
	b := NewBitFlip(p, seed)
	b.Bounded = true
	return b
}

// Intercept implements sim.Interceptor.
func (b *BitFlip) Intercept(round int, msg *gossip.Message) bool {
	if b.rng.Float64() >= b.P {
		return true
	}
	// Collect the mutable float slots of the message.
	slots := make([]*float64, 0, 2*(msg.Flow1.Width()+1))
	for i := range msg.Flow1.X {
		slots = append(slots, &msg.Flow1.X[i])
	}
	slots = append(slots, &msg.Flow1.W)
	for i := range msg.Flow2.X {
		slots = append(slots, &msg.Flow2.X[i])
	}
	slots = append(slots, &msg.Flow2.W)
	target := slots[b.rng.Intn(len(slots))]
	var bit uint
	if b.Bounded {
		k := uint(b.rng.Intn(53)) // 52 mantissa bits + sign
		if k == 52 {
			bit = 63
		} else {
			bit = k
		}
	} else {
		bit = uint(b.rng.Intn(64))
	}
	*target = math.Float64frombits(math.Float64bits(*target) ^ (1 << bit))
	b.Flips++
	return true
}

// Duplicate delivers each message twice with probability P, back to
// back, preserving per-link FIFO order — the classic at-least-once
// transport artifact. Flow-based protocols are idempotent under it.
type Duplicate struct {
	P   float64
	rng *rand.Rand
	// Dups counts duplicated messages, for test assertions.
	Dups int
}

// NewDuplicate returns a seeded duplication injector.
func NewDuplicate(p float64, seed int64) *Duplicate {
	if p < 0 || p > 1 {
		panic("fault: duplication probability out of [0,1]")
	}
	return &Duplicate{P: p, rng: rand.New(rand.NewSource(seed))}
}

// Intercept implements sim.Interceptor (never drops).
func (d *Duplicate) Intercept(round int, msg *gossip.Message) bool { return true }

// Copies implements sim.Replicator.
func (d *Duplicate) Copies(round int, msg *gossip.Message) int {
	if d.rng.Float64() < d.P {
		d.Dups++
		return 2
	}
	return 1
}

// Reorder models a non-FIFO transport: with probability P a message is
// held back; it is re-injected right after the *next* message on the
// same directed link, so adjacent messages swap positions. Push-flow
// absorbs reordering (its per-edge state is memoryless), while PCF's
// (c, r) cancellation handshake assumes FIFO links and relies on its
// hard-resync recovery path under this injector; see the core package
// documentation.
type Reorder struct {
	P       float64
	rng     *rand.Rand
	held    []gossip.Message
	release []gossip.Message
	// Swaps counts reordered pairs, for test assertions.
	Swaps int
}

// NewReorder returns a seeded reordering injector.
func NewReorder(p float64, seed int64) *Reorder {
	if p < 0 || p > 1 {
		panic("fault: reorder probability out of [0,1]")
	}
	return &Reorder{P: p, rng: rand.New(rand.NewSource(seed))}
}

// Intercept implements sim.Interceptor: it either holds the message back
// (returning false) or lets it pass, scheduling any held message on the
// same link for re-injection right afterwards.
func (r *Reorder) Intercept(round int, msg *gossip.Message) bool {
	for i, old := range r.held {
		if old.From == msg.From && old.To == msg.To {
			r.release = append(r.release, old)
			r.held = append(r.held[:i], r.held[i+1:]...)
			r.Swaps++
			return true // msg passes first, held one follows: swapped
		}
	}
	if r.rng.Float64() < r.P {
		r.held = append(r.held, msg.Clone())
		return false
	}
	return true
}

// Extra implements sim.Injector, releasing swapped messages.
func (r *Reorder) Extra(round int) []gossip.Message {
	out := r.release
	r.release = nil
	return out
}

// Compose chains interceptors; a message survives only if every
// interceptor passes it, and mutations accumulate left to right.
func Compose(ics ...sim.Interceptor) sim.Interceptor {
	return sim.InterceptorFunc(func(round int, msg *gossip.Message) bool {
		for _, ic := range ics {
			if ic == nil {
				continue
			}
			if !ic.Intercept(round, msg) {
				return false
			}
		}
		return true
	})
}

// Window restricts an interceptor to rounds in [From, To); outside the
// window messages pass untouched. Use it to inject soft errors only
// during a phase of the computation.
func Window(ic sim.Interceptor, from, to int) sim.Interceptor {
	return sim.InterceptorFunc(func(round int, msg *gossip.Message) bool {
		if round < from || round >= to {
			return true
		}
		return ic.Intercept(round, msg)
	})
}

// Op identifies the kind of a scheduled failure event.
type Op int

// The zero Op names no operation; Plan.Validate rejects it.
const (
	// OpLinkFail is the quiescent, notified link failure (Figs. 4/7).
	OpLinkFail Op = iota + 1
	// OpLinkFailAbrupt is the notified link failure that loses the
	// link's in-flight messages (sim.Engine.FailLinkAbrupt).
	OpLinkFailAbrupt
	// OpNodeCrash is the notified node crash.
	OpNodeCrash
	// OpLinkSilence starts an unannounced outage on a link: messages are
	// silently dropped and NO endpoint is notified — only a failure
	// detector can react. The oracle-free counterpart of OpLinkFail.
	OpLinkSilence
	// OpLinkRestore heals a silenced link.
	OpLinkRestore
	// OpNodeCrashSilent crashes a node without telling anyone.
	OpNodeCrashSilent
	// OpNodeHang freezes a node (no sends, no receives) until resumed.
	OpNodeHang
	// OpNodeResume unfreezes a hung node.
	OpNodeResume
	// OpNodeCheckpoint makes a node freeze its protocol state as its
	// local crash-restart checkpoint (engines' CheckpointNode).
	OpNodeCheckpoint
	// OpNodeRestart revives a crashed node from its last checkpoint via
	// the snapshot-restore handshake (engines' RestartNode).
	OpNodeRestart
	// OpNodeJoin admits a brand-new node into the open-world overlay:
	// Node is its id (always the current node count, keeping ids dense),
	// Value its scalar input, Peers the existing nodes it wires to.
	OpNodeJoin
	// OpNodeLeave removes node Node gracefully: its in-flight messages
	// are flushed, its links torn down on both sides, and its surplus
	// mass handed to a live neighbor, so global mass over the live
	// roster is conserved exactly.
	OpNodeLeave
	// OpEdgeRewire is a Watts–Strogatz rewire step: overlay edge (A, B)
	// is replaced by (A, C), both sides mass-exactly.
	OpEdgeRewire
	// OpSetLinkLoss sets the heterogeneous loss rate of link (A, B) to
	// P (0 removes the entry) — the per-link replacement for the single
	// global Loss probability.
	OpSetLinkLoss
)

// Event is one scheduled failure (permanent, silent, or transient).
type Event struct {
	// Round at which the failure strikes (before the round executes).
	Round int
	// A, B are the endpoints of a link operation (-1 otherwise).
	A, B int
	// Node is the subject of a node operation (-1 otherwise).
	Node int
	// Op selects the operation.
	Op Op
	// C is the new far endpoint of an OpEdgeRewire: (A, B) → (A, C).
	C int
	// Value is the joining node's scalar input (OpNodeJoin).
	Value float64
	// Peers are the existing nodes a joining node wires to (OpNodeJoin).
	Peers []int
	// P is the per-link loss probability (OpSetLinkLoss).
	P float64
}

// LinkFailure returns a quiescent link-failure event (in-flight messages
// delivered before the link dies), the model of the paper's Figs. 4/7.
func LinkFailure(round, a, b int) Event {
	return Event{Round: round, A: a, B: b, Node: -1, Op: OpLinkFail}
}

// AbruptLinkFailure returns a mid-transit link-failure event (in-flight
// messages lost; see sim.Engine.FailLinkAbrupt).
func AbruptLinkFailure(round, a, b int) Event {
	return Event{Round: round, A: a, B: b, Node: -1, Op: OpLinkFailAbrupt}
}

// NodeCrash returns a node-crash event.
func NodeCrash(round, node int) Event {
	return Event{Round: round, Node: node, A: -1, B: -1, Op: OpNodeCrash}
}

// SilentLinkFailure returns an unannounced permanent link outage: the
// link drops everything from the given round on and nobody is told.
func SilentLinkFailure(round, a, b int) Event {
	return Event{Round: round, A: a, B: b, Node: -1, Op: OpLinkSilence}
}

// LinkRestore returns the healing event for a silenced link.
func LinkRestore(round, a, b int) Event {
	return Event{Round: round, A: a, B: b, Node: -1, Op: OpLinkRestore}
}

// LinkOutage returns the transient-outage pair: the link falls silent at
// failRound and heals at healRound.
func LinkOutage(failRound, healRound, a, b int) []Event {
	return []Event{SilentLinkFailure(failRound, a, b), LinkRestore(healRound, a, b)}
}

// SilentNodeCrash returns an unannounced node crash — the node falls
// silent forever and only failure detectors can discover it.
func SilentNodeCrash(round, node int) Event {
	return Event{Round: round, Node: node, A: -1, B: -1, Op: OpNodeCrashSilent}
}

// NodeHang returns a node-freeze event (no sends, no receives, inbox
// still accumulating — a long GC pause or overloaded host).
func NodeHang(round, node int) Event {
	return Event{Round: round, Node: node, A: -1, B: -1, Op: OpNodeHang}
}

// NodeResume returns the resume event for a hung node.
func NodeResume(round, node int) Event {
	return Event{Round: round, Node: node, A: -1, B: -1, Op: OpNodeResume}
}

// NodeOutage returns the transient node-outage pair: the node hangs at
// hangRound and resumes at resumeRound.
func NodeOutage(hangRound, resumeRound, node int) []Event {
	return []Event{NodeHang(hangRound, node), NodeResume(resumeRound, node)}
}

// NodeCheckpoint returns a checkpoint event: the node freezes its
// protocol state as the restore point for a later NodeRestart.
func NodeCheckpoint(round, node int) Event {
	return Event{Round: round, Node: node, A: -1, B: -1, Op: OpNodeCheckpoint}
}

// NodeRestart returns a restart event: a crashed node revives from its
// last checkpoint (or from scratch when it never checkpointed) and
// rejoins via the snapshot-restore handshake.
func NodeRestart(round, node int) Event {
	return Event{Round: round, Node: node, A: -1, B: -1, Op: OpNodeRestart}
}

// CheckpointEvery returns periodic checkpoint events for one node at
// rounds every, 2·every, … up to and including until — the standing
// checkpoint cadence of the crash-restart recovery mode.
func CheckpointEvery(every, until, node int) []Event {
	if every <= 0 {
		panic("fault: CheckpointEvery requires a positive interval")
	}
	var out []Event
	for r := every; r <= until; r += every {
		out = append(out, NodeCheckpoint(r, node))
	}
	return out
}

// NodeJoin returns an open-world join event: a brand-new node with the
// given id (which must equal the node count at the moment the event
// fires — ids stay dense), scalar input value, and edges to the given
// existing peers.
func NodeJoin(round, id int, value float64, peers ...int) Event {
	return Event{Round: round, Node: id, A: -1, B: -1, Op: OpNodeJoin,
		Value: value, Peers: append([]int(nil), peers...)}
}

// NodeLeave returns a graceful-departure event: the node flushes its
// in-flight flows, tears down its links on both sides, and hands its
// surplus mass to a live neighbor before going away.
func NodeLeave(round, node int) Event {
	return Event{Round: round, Node: node, A: -1, B: -1, Op: OpNodeLeave}
}

// EdgeRewire returns a Watts–Strogatz rewire event: overlay edge (a, b)
// is replaced by (a, c).
func EdgeRewire(round, a, b, c int) Event {
	return Event{Round: round, A: a, B: b, C: c, Node: -1, Op: OpEdgeRewire}
}

// SetLinkLoss returns a per-link loss-rate change: messages on link
// (a, b) are henceforth dropped independently with probability p in
// each direction (0 restores a loss-free link).
func SetLinkLoss(round, a, b int, p float64) Event {
	return Event{Round: round, A: a, B: b, Node: -1, Op: OpSetLinkLoss, P: p}
}

// LinkLoss is a per-link heterogeneous loss table: rates keyed by the
// ordered link (min, max). It supersedes the single global Loss
// probability for experiments that need per-edge transmission-failure
// rates (the arXiv 1504.08193 model). Events renders the table as
// schedule events so one Plan carries the whole loss configuration.
type LinkLoss map[[2]int]float64

// Set records the loss rate of the undirected link (a, b).
func (l LinkLoss) Set(a, b int, p float64) {
	if p < 0 || p > 1 {
		panic("fault: link loss probability out of [0,1]")
	}
	if a > b {
		a, b = b, a
	}
	if p == 0 {
		delete(l, [2]int{a, b})
		return
	}
	l[[2]int{a, b}] = p
}

// Rate returns the loss rate of link (a, b) (0 when absent).
func (l LinkLoss) Rate(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	return l[[2]int{a, b}]
}

// Events renders the table as SetLinkLoss events at the given round, in
// deterministic (sorted link) order.
func (l LinkLoss) Events(round int) []Event {
	keys := make([][2]int, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	out := make([]Event, len(keys))
	for i, k := range keys {
		out[i] = SetLinkLoss(round, k[0], k[1], l[k])
	}
	return out
}

// CrashRestart returns the crash-recovery pair of the restart-from-
// snapshot strategy: the node crashes silently at crashRound and
// restarts from its last checkpoint at restartRound. Combine with
// NodeCheckpoint/CheckpointEvery to control how stale the restored
// state is; experiments.RecoveryComparison benchmarks this against
// detector-driven reintegration.
func CrashRestart(crashRound, restartRound, node int) []Event {
	return []Event{SilentNodeCrash(crashRound, node), NodeRestart(restartRound, node)}
}

// Plan is a schedule of failures. Its OnRound method plugs into
// sim.RunConfig.OnRound.
type Plan struct {
	events []Event
}

// NewPlan returns a Plan over the given events (any order).
func NewPlan(events ...Event) *Plan {
	return &Plan{events: append([]Event(nil), events...)}
}

// Add appends events (e.g. the pairs returned by LinkOutage/NodeOutage)
// and returns the plan for chaining.
func (p *Plan) Add(events ...Event) *Plan {
	p.events = append(p.events, events...)
	return p
}

// Events returns a copy of the schedule.
func (p *Plan) Events() []Event {
	return append([]Event(nil), p.events...)
}

// OnRound applies all events scheduled for the given round, in
// schedule order.
func (p *Plan) OnRound(e *sim.Engine, round int) {
	for _, ev := range p.events {
		if ev.Round != round {
			continue
		}
		switch ev.Op {
		case OpLinkFail:
			e.FailLink(ev.A, ev.B)
		case OpLinkFailAbrupt:
			e.FailLinkAbrupt(ev.A, ev.B)
		case OpNodeCrash:
			e.CrashNode(ev.Node)
		case OpLinkSilence:
			e.SilenceLink(ev.A, ev.B)
		case OpLinkRestore:
			e.RestoreLink(ev.A, ev.B)
		case OpNodeCrashSilent:
			e.CrashNodeSilent(ev.Node)
		case OpNodeHang:
			e.HangNode(ev.Node)
		case OpNodeResume:
			e.ResumeNode(ev.Node)
		case OpNodeCheckpoint:
			e.CheckpointNode(ev.Node)
		case OpNodeRestart:
			e.RestartNode(ev.Node)
		case OpNodeJoin:
			e.JoinNode(ev.Node, ev.Value, ev.Peers)
		case OpNodeLeave:
			e.LeaveNode(ev.Node)
		case OpEdgeRewire:
			e.RewireEdge(ev.A, ev.B, ev.C)
		case OpSetLinkLoss:
			e.SetLinkLoss(ev.A, ev.B, ev.P)
		}
	}
}
