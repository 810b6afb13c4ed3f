package fault

// Open-world churn: schedule validation against a membership model, and
// a seeded generator of sustained join/leave/rewire schedules shared by
// the churn experiments and the property-test suite.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pcfreduce/internal/topology"
)

// String returns the operation's schedule name.
func (op Op) String() string {
	switch op {
	case OpLinkFail:
		return "link-fail"
	case OpLinkFailAbrupt:
		return "link-fail-abrupt"
	case OpNodeCrash:
		return "node-crash"
	case OpLinkSilence:
		return "link-silence"
	case OpLinkRestore:
		return "link-restore"
	case OpNodeCrashSilent:
		return "node-crash-silent"
	case OpNodeHang:
		return "node-hang"
	case OpNodeResume:
		return "node-resume"
	case OpNodeCheckpoint:
		return "node-checkpoint"
	case OpNodeRestart:
		return "node-restart"
	case OpNodeJoin:
		return "node-join"
	case OpNodeLeave:
		return "node-leave"
	case OpEdgeRewire:
		return "edge-rewire"
	case OpSetLinkLoss:
		return "set-link-loss"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// Validate replays the schedule against a membership model of the given
// base graph — an overlay shadow plus a live-roster set — and returns a
// descriptive error for the first event that could not execute:
// out-of-range node or link ids, links absent from the (churned)
// overlay, joins whose id is not the next dense id or whose peers are
// dead or duplicated, departures of already-dead nodes, rewires of
// absent edges or onto existing ones, and loss rates outside [0, 1].
// Events are checked in execution order (ascending round, schedule
// order within a round), so a join legalizes later events that
// reference the joined id. A nil error means the plan will run cleanly
// on an engine built over g.
func (p *Plan) Validate(g *topology.Graph) error {
	evs := p.Events()
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Round < evs[b].Round })
	o := topology.NewOverlay(g)
	alive := make([]bool, g.N())
	for i := range alive {
		alive[i] = true
	}
	for idx, ev := range evs {
		op := ev.Op
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("fault: plan event %d (%s at round %d): %s",
				idx, op, ev.Round, fmt.Sprintf(format, args...))
		}
		n := o.N()
		checkLink := func(a, b int) error {
			if a < 0 || a >= n || b < 0 || b >= n {
				return fail("link (%d,%d) out of range [0,%d)", a, b, n)
			}
			if a == b {
				return fail("link (%d,%d) is a self-loop", a, b)
			}
			if !o.HasEdge(a, b) {
				return fail("link (%d,%d) not in the (churned) topology", a, b)
			}
			return nil
		}
		checkNode := func(i int) error {
			if i < 0 || i >= n {
				return fail("node %d out of range [0,%d)", i, n)
			}
			return nil
		}
		switch op {
		case OpLinkFail, OpLinkFailAbrupt, OpLinkSilence, OpLinkRestore:
			if err := checkLink(ev.A, ev.B); err != nil {
				return err
			}
		case OpSetLinkLoss:
			if err := checkLink(ev.A, ev.B); err != nil {
				return err
			}
			if math.IsNaN(ev.P) || ev.P < 0 || ev.P > 1 {
				return fail("loss probability %v out of [0,1]", ev.P)
			}
		case OpNodeCrash, OpNodeCrashSilent:
			if err := checkNode(ev.Node); err != nil {
				return err
			}
			if !alive[ev.Node] {
				return fail("node %d is already dead", ev.Node)
			}
			alive[ev.Node] = false
		case OpNodeHang, OpNodeResume, OpNodeCheckpoint:
			if err := checkNode(ev.Node); err != nil {
				return err
			}
		case OpNodeRestart:
			if err := checkNode(ev.Node); err != nil {
				return err
			}
			alive[ev.Node] = true
		case OpNodeJoin:
			if ev.Node != n {
				return fail("join id %d, want the next dense id %d", ev.Node, n)
			}
			if len(ev.Peers) == 0 {
				return fail("join needs at least one peer")
			}
			if math.IsNaN(ev.Value) || math.IsInf(ev.Value, 0) {
				return fail("join value %v not finite", ev.Value)
			}
			for k, pr := range ev.Peers {
				if pr < 0 || pr >= n {
					return fail("join peer %d out of range [0,%d)", pr, n)
				}
				if !alive[pr] {
					return fail("join peer %d is dead", pr)
				}
				for _, q := range ev.Peers[:k] {
					if q == pr {
						return fail("join peer %d duplicated", pr)
					}
				}
			}
			o.AddNode(ev.Peers...)
			alive = append(alive, true)
		case OpNodeLeave:
			if err := checkNode(ev.Node); err != nil {
				return err
			}
			if !alive[ev.Node] {
				return fail("node %d is already dead", ev.Node)
			}
			alive[ev.Node] = false
			row := append([]int32(nil), o.Neighbors(ev.Node)...)
			for _, j := range row {
				o.RemoveEdge(ev.Node, int(j))
			}
		case OpEdgeRewire:
			if err := checkLink(ev.A, ev.B); err != nil {
				return err
			}
			if err := checkNode(ev.C); err != nil {
				return err
			}
			if ev.C == ev.A {
				return fail("rewire target %d equals endpoint %d", ev.C, ev.A)
			}
			if !alive[ev.C] {
				return fail("rewire target %d is dead", ev.C)
			}
			if o.HasEdge(ev.A, ev.C) {
				return fail("rewire target edge (%d,%d) already exists", ev.A, ev.C)
			}
			o.RemoveEdge(ev.A, ev.B)
			o.AddEdge(ev.A, ev.C)
		default:
			return fail("unknown operation")
		}
	}
	return nil
}

// ChurnOptions parameterizes ChurnSchedule.
type ChurnOptions struct {
	// Rounds is the schedule horizon: membership events land at rounds
	// Every, 2·Every, … strictly below Rounds.
	Rounds int
	// Every is the cadence between membership events (default 10).
	Every int
	// Losses seeds the schedule with this many per-link loss rates at
	// round 1, drawn uniformly from (0, churnMaxLoss] over distinct
	// random base edges (default 0 — churn property tests need exact
	// mass).
	Losses int
}

// The generated event mix: joins with probability churnJoinFrac,
// graceful leaves with churnLeaveFrac, rewires with the remainder. Each
// joiner wires to churnPeersPerJoin live nodes (capped by the live
// count); leaves that would shrink the live roster below churnMinLive
// are skipped.
const (
	churnJoinFrac     float64 = 0.4
	churnLeaveFrac    float64 = 0.3
	churnPeersPerJoin         = 2
	churnMinLive              = 3
	churnMaxLoss      float64 = 0.05
)

// ChurnSchedule generates a seeded sustained-churn plan over the given
// base graph: joins of brand-new nodes (dense ids, fresh mass), graceful
// leaves, and Watts–Strogatz rewires, tracked against a membership model
// so every generated event is valid by construction (the result passes
// Validate for any seed — enforced by the property suite). Events that
// the model cannot place (no live leaver without disconnecting, no
// rewire target) are skipped, so the schedule may hold fewer events than
// the horizon allows.
func ChurnSchedule(g *topology.Graph, opts ChurnOptions, seed int64) *Plan {
	if opts.Every <= 0 {
		opts.Every = 10
	}
	rng := rand.New(rand.NewSource(seed))
	o := topology.NewOverlay(g)
	alive := make([]bool, g.N())
	liveCount := g.N()
	for i := range alive {
		alive[i] = true
	}

	pickLive := func(excluded int) int {
		if liveCount == 0 {
			return -1
		}
		for t := 0; t < 4*o.N(); t++ {
			i := rng.Intn(o.N())
			if alive[i] && i != excluded {
				return i
			}
		}
		return -1
	}
	// liveNeighbor returns a uniformly chosen live overlay neighbor.
	liveNeighbor := func(i int) int {
		row := o.Neighbors(i)
		cand := make([]int, 0, len(row))
		for _, j := range row {
			if alive[j] {
				cand = append(cand, int(j))
			}
		}
		if len(cand) == 0 {
			return -1
		}
		return cand[rng.Intn(len(cand))]
	}
	// liveConnected reports whether the live subgraph is connected.
	liveConnected := func() bool {
		start := -1
		for i := 0; i < o.N(); i++ {
			if alive[i] {
				start = i
				break
			}
		}
		if start < 0 {
			return true
		}
		seen := make([]bool, o.N())
		queue := []int{start}
		seen[start] = true
		count := 1
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range o.Neighbors(v) {
				if alive[w] && !seen[w] {
					seen[w] = true
					count++
					queue = append(queue, int(w))
				}
			}
		}
		return count == liveCount
	}

	plan := NewPlan()
	if opts.Losses > 0 {
		edges := g.Edges()
		rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
		for k := 0; k < opts.Losses && k < len(edges); k++ {
			p := rng.Float64() * churnMaxLoss
			if p == 0 {
				p = churnMaxLoss
			}
			plan.Add(SetLinkLoss(1, edges[k][0], edges[k][1], p))
		}
	}

	for r := opts.Every; r < opts.Rounds; r += opts.Every {
		x := rng.Float64()
		switch {
		case x < churnJoinFrac:
			k := churnPeersPerJoin
			if k > liveCount {
				k = liveCount
			}
			peers := make([]int, 0, k)
			for len(peers) < k {
				p := pickLive(-1)
				if p < 0 {
					break
				}
				dup := false
				for _, q := range peers {
					if q == p {
						dup = true
						break
					}
				}
				if !dup {
					peers = append(peers, p)
				}
			}
			if len(peers) == 0 {
				continue
			}
			id := o.N()
			plan.Add(NodeJoin(r, id, rng.Float64()*100, peers...))
			o.AddNode(peers...)
			alive = append(alive, true)
			liveCount++
		case x < churnJoinFrac+churnLeaveFrac:
			if liveCount <= churnMinLive {
				continue
			}
			placed := false
			for try := 0; try < 20 && !placed; try++ {
				v := pickLive(-1)
				if v < 0 || liveNeighbor(v) < 0 {
					continue
				}
				row := append([]int32(nil), o.Neighbors(v)...)
				for _, j := range row {
					o.RemoveEdge(v, int(j))
				}
				alive[v] = false
				liveCount--
				if !liveConnected() {
					// Revert: re-add the edges and keep v alive.
					for _, j := range row {
						o.AddEdge(v, int(j))
					}
					alive[v] = true
					liveCount++
					continue
				}
				plan.Add(NodeLeave(r, v))
				placed = true
			}
		default:
			for try := 0; try < 20; try++ {
				a := pickLive(-1)
				if a < 0 {
					break
				}
				b := liveNeighbor(a)
				if b < 0 {
					continue
				}
				c := pickLive(a)
				if c < 0 || o.HasEdge(a, c) {
					continue
				}
				o.RemoveEdge(a, b)
				o.AddEdge(a, c)
				if !liveConnected() {
					o.RemoveEdge(a, c)
					o.AddEdge(a, b)
					continue
				}
				plan.Add(EdgeRewire(r, a, b, c))
				break
			}
		}
	}
	return plan
}
