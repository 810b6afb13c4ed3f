package gossip

import "fmt"

// Kind classifies a message on the wire. The zero value is a plain data
// message, so protocol code that constructs messages field-by-field is
// unaffected; the non-zero kinds are engine-level control messages that
// are never handed to Protocol.Receive.
type Kind uint8

const (
	// KindData is a protocol payload message (the zero value).
	KindData Kind = iota
	// KindLinkDown notifies the receiver that the link to From has
	// permanently failed (oracle-style failure notification).
	KindLinkDown
	// KindKeepalive is a liveness beacon carrying no payload: engines
	// emit it on links that have been idle too long (and, at a lower
	// rate, toward suspected neighbors as reintegration probes) so that
	// failure detectors can tell silence from a quiet schedule.
	KindKeepalive
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindLinkDown:
		return "link-down"
	case KindKeepalive:
		return "keepalive"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Message is the single wire format shared by every reduction protocol in
// this repository. Keeping one concrete format (rather than per-protocol
// payload types behind an interface) lets the fault injectors corrupt
// arbitrary bits of any in-flight message without type switches, and
// keeps the hot simulation loop free of interface allocations.
//
// Field usage by protocol:
//
//	push-sum:        Flow1 = the transferred mass share
//	push-flow:       Flow1 = the sender's flow variable f(i,j)
//	push-cancel-flow: Flow1/Flow2 = the two flow slots, C = active slot
//	                 index (1 or 2), R = role-change round counter
//	flow-updating:   Flow1 = flow f(i,j), Flow2.X = sender's estimate,
//	                 Flow2.W = sender's weight estimate
//
// Kind distinguishes data messages from engine control messages; only
// KindData messages reach Protocol.Receive. Kind sits next to C so the
// two bytes share one padding word: 96 bytes per message instead of 104.
type Message struct {
	From, To int
	Flow1    Value
	Flow2    Value
	Kind     Kind
	C        uint8
	R        uint64
}

// Clone returns a deep copy of m, so that corrupting a delivered copy
// never aliases protocol-internal state.
func (m Message) Clone() Message {
	cp := m
	cp.Flow1 = m.Flow1.Clone()
	cp.Flow2 = m.Flow2.Clone()
	return cp
}

// String renders a compact debugging representation.
func (m Message) String() string {
	if m.Kind != KindData {
		return fmt.Sprintf("Message{%d→%d %s}", m.From, m.To, m.Kind)
	}
	return fmt.Sprintf("Message{%d→%d f1:%v f2:%v c:%d r:%d}",
		m.From, m.To, m.Flow1, m.Flow2, m.C, m.R)
}

// Protocol is the node-local state machine implemented by every reduction
// algorithm, and the one contract between a protocol and the engines:
// every operation an engine calls is listed here, and the engines call
// nothing else. One Protocol instance exists per node; the engines
// (internal/sim for deterministic rounds, internal/runtime for
// asynchronous goroutine execution) own the communication schedule and
// drive the instances.
//
// The engine — not the protocol — draws which neighbor a node pushes to
// in each activation. This guarantees that two different algorithms run
// with the same seed see bit-identical communication schedules, which the
// paper relies on when comparing PF and PCF failure handling (Figs. 4
// and 7 "initially used exactly the same random seed").
type Protocol interface {
	// Reset (re)initializes the node with its id, immutable neighbor
	// list and initial (value, weight) pair. The neighbor list uses the
	// topology package's int32 node ids (a zero-copy CSR row may be
	// passed directly); the protocol must copy it if it retains it. It
	// must be callable repeatedly to support restarting experiments on
	// reused instances.
	Reset(node int, neighbors []int32, init Value)

	// FillMessage writes into msg the message this node pushes to the
	// given live neighbor now, applying the local state updates the
	// protocol's send step prescribes (e.g. PF's "virtual send"
	// f ← f + e/2). Engines reuse their messages without resetting them,
	// so FillMessage sets every field itself — From, To, Kind (KindData),
	// C and R (zero where unused) and both flows — whatever msg held
	// before, and leaves an unused flow truncated to zero width
	// (msg.FlowN.X = msg.FlowN.X[:0], W = 0), so that width checks and
	// bit-flip injectors see the same shape whatever msg held. A flow
	// backing array of the value width is written in place (Value.Set's
	// rule: any other length is replaced), so a caller that needs a
	// fresh message fills a zero Message.
	FillMessage(target int, msg *Message)

	// Receive processes a delivered message. The message may have been
	// corrupted or duplicated by fault injection; protocols must not
	// panic on malformed contents. The message's flow slices may alias
	// engine storage that the simulator rewrites two rounds later, so a
	// protocol copies what it keeps and must not retain the slices past
	// the call.
	Receive(msg Message)

	// EstimateInto writes the node's current estimate of the global
	// aggregate (component-wise X/W of its local mass) into dst, reusing
	// its backing array when the capacity suffices, and returns the
	// slice; EstimateInto(nil) returns a fresh one.
	EstimateInto(dst []float64) []float64

	// LocalValueInto writes the node's current local mass (value and
	// weight), i.e. its initial data minus outstanding flows, into dst,
	// reusing dst's backing. Σ over all nodes of the local mass is the
	// conserved global mass when flow conservation holds.
	LocalValueInto(dst *Value)

	// OnLinkFailure informs the node that the link to the given neighbor
	// has failed. The protocol excludes the neighbor from the
	// computation (for flow algorithms: zeroes the corresponding flow
	// variables, per Section II-A of the paper).
	OnLinkFailure(neighbor int)

	// OnLinkRecover undoes OnLinkFailure's exclusion for self-healing
	// engines: a failure detector that evicted a neighbor on suspicion
	// restores it when traffic resumes (the suspicion was false, or the
	// outage was transient). The neighbor rejoins LiveNeighbors, and the
	// edge's flow state restarts from zero (PF, FU) or from the state
	// frozen at eviction (PCF), either of which the next exchange
	// reconciles with the peer's. Calling it for a live (or unknown)
	// neighbor is a no-op.
	OnLinkRecover(neighbor int)

	// LiveNeighbors returns the neighbors not excluded by OnLinkFailure,
	// in stable order. The engine draws push targets from this set.
	LiveNeighbors() []int32

	// OnNeighborJoin admits a brand-new neighbor (one that was not in
	// the Reset neighbor list) for open-world churn: the protocol grows
	// its per-edge state by one zero-flow edge and appends the neighbor
	// to its live list. A zero flow carries no mass, so admitting an
	// edge is mass-neutral. Engines call it on both endpoints of every
	// edge a join or a rewire creates.
	OnNeighborJoin(neighbor int)

	// AbsorbMass folds v into the node's own initial contribution,
	// raising its local mass and nothing else (flows and live lists are
	// untouched). Engines use it to hand a gracefully departing
	// neighbor's surplus to a survivor, keeping the global mass over the
	// live roster exact across the departure. Unlike SetInput it adds to
	// the input, and the engine's oracle keeps attributing the mass to
	// the node that first contributed it.
	AbsorbMass(v Value)

	// SetInput replaces the node's input for live monitoring (the
	// paper's reference [8], LiMoSense): the estimates re-converge to
	// the new aggregate without a restart. Flow algorithms shift only
	// the local mass, since it is the input minus outstanding flows;
	// push-sum adds the input delta to its mass. The weight must equal
	// the original weight (the aggregate's weighting is fixed at Reset).
	SetInput(v Value)

	// SaveState appends every piece of mutable protocol state to the
	// writer in a fixed order, for checkpoints.
	SaveState(w *StateWriter)

	// LoadState reads SaveState's stream back into a node that has been
	// Reset with the identical (id, neighbors, init width), fully
	// overwriting the post-Reset state, so Reset-then-LoadState
	// reproduces the saved node bit for bit (including the verbatim
	// live-neighbor order, on which floating-point results may depend).
	// Failures are reported through the reader's sticky error.
	LoadState(r *StateReader)

	// EdgeView returns the node's edge store (read-only; valid until the
	// protocol's next state change) for the metrics anti-symmetry probe:
	// how many leading slots of each edge hold flows, and whether a slot
	// that is zero on either side of an edge is exempt from the
	// anti-symmetry invariant. PCF reports its two cancellation slots
	// with the zero side exempt (a cancelled or not yet staged slot is
	// legitimately empty); PF and FU report slot 0, their one flow, with
	// no exemption, since their exchange overwrites the mirror in one
	// step; push-sum reports 0 flows.
	EdgeView() (s *EdgeStore, flows int, zeroExempt bool)
}

// Flows is an optional interface exposing a protocol's per-neighbor flow
// state, used by tests and by the bus-network worked example (paper
// Fig. 2) to assert equilibrium flow values. Push-sum, which has no
// flows, does not implement it.
type Flows interface {
	// Flow returns the protocol's current net flow from this node to the
	// given neighbor (for PCF: the sum of both slots plus cancelled mass
	// attributed to that edge is not meaningful, so PCF returns the sum
	// of the two live slots).
	Flow(neighbor int) Value
}
