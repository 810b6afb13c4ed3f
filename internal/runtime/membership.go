package runtime

// Open-world membership for the concurrent runtime: mass-conserving
// joins, graceful leaves with surplus handoff, Watts–Strogatz-style
// edge rewiring and per-link heterogeneous loss — the same fault.Runner
// surface the round-based simulator implements, driven by the same
// fault.Plan schedules.
//
// Semantics differ from the simulator in exactly the way the execution
// models differ. The simulator's membership operations are exact: they
// run between rounds with all in-flight messages flushed first, so
// global mass is conserved to rounding error across every event. Here
// nodes are goroutines and messages are in flight at all times; a leave
// drains what has already arrived and hands over the rest as measured
// surplus, so conservation is tight for the flow protocols (unreceived
// flow deltas are reclaimed by OnLinkFailure on both endpoints) and
// best-effort for push-sum (mass riding in a dropped late message is
// gone — which is the point the paper makes about push-sum). Property
// tests assert exactness on the simulator and loose tolerances here.

import (
	"fmt"
	"math"
	"math/rand"

	"pcfreduce/internal/detect"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/topology"
)

// ensureOverlayLocked lazily wraps the base graph in a mutable overlay.
// Caller holds nodesMu.
func (net *Network) ensureOverlayLocked() *topology.Overlay {
	if net.overlay == nil {
		net.overlay = topology.NewOverlay(net.cfg.Graph)
	}
	return net.overlay
}

// Overlay returns the mutable topology overlay, or nil when no
// membership operation has fired yet (the base graph is still exact).
func (net *Network) Overlay() *topology.Overlay {
	net.nodesMu.RLock()
	defer net.nodesMu.RUnlock()
	return net.overlay
}

// isDeparted reports whether node i has gracefully left the network.
func (net *Network) isDeparted(i int) bool {
	net.departedMu.RLock()
	defer net.departedMu.RUnlock()
	return net.departed[i]
}

// lossDrop draws the per-link loss coin for one message. Links without
// a configured rate never touch the RNG, so loss-free runs behave
// exactly as before the feature existed.
func (net *Network) lossDrop(i, j int) bool {
	net.lossMu.Lock()
	defer net.lossMu.Unlock()
	if len(net.lossRates) == 0 {
		return false
	}
	p, ok := net.lossRates[linkKey(i, j)]
	if !ok {
		return false
	}
	return net.lossRng.Float64() < p
}

// LinkLossRate returns the heterogeneous loss rate configured for link
// (i, j), 0 when none is set.
func (net *Network) LinkLossRate(i, j int) float64 {
	net.lossMu.Lock()
	defer net.lossMu.Unlock()
	return net.lossRates[linkKey(i, j)]
}

// setupDetector installs a fresh failure detector on nd with `at` as
// the moment of last contact with every current neighbor. Run uses it
// at spawn time (at=0); JoinNode uses it for mid-run joins (at=now).
func (net *Network) setupDetector(nd *node, at float64) {
	dc := net.cfg.Detector
	if dc == nil {
		return
	}
	neighbors := net.neighborRow(nd.id)
	nd.mu.Lock()
	nd.det = detect.New(dc.detectConfig(), neighbors, at)
	nd.lastSent = make(map[int]float64, len(neighbors))
	nd.mu.Unlock()
}

// JoinNode adds a brand-new node mid-run: id must be the next dense id
// (current node count), value is its scalar initial contribution
// (weight 1, average aggregate), and peers are the existing nodes it
// attaches to. The new node's protocol instance comes from
// Config.NewProtocol; each peer admits the newcomer through the
// mass-neutral OnNeighborJoin handshake, so the join changes the
// oracle aggregate only by the declared (value, 1) contribution. When
// the network is running the node's goroutine starts immediately.
func (net *Network) JoinNode(id int, value float64, peers []int) {
	if len(net.targets) != 1 {
		panic(fmt.Sprintf("runtime: JoinNode requires scalar aggregates (width %d)", len(net.targets)))
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		panic(fmt.Sprintf("runtime: JoinNode value %v is not finite", value))
	}
	if len(peers) == 0 {
		panic("runtime: JoinNode requires at least one peer")
	}

	net.nodesMu.Lock()
	if id != len(net.nodes) {
		net.nodesMu.Unlock()
		panic(fmt.Sprintf("runtime: JoinNode id %d, want next dense id %d", id, len(net.nodes)))
	}
	for _, p := range peers {
		if p < 0 || p >= len(net.nodes) {
			net.nodesMu.Unlock()
			panic(fmt.Sprintf("runtime: JoinNode peer %d out of range [0, %d)", p, len(net.nodes)))
		}
		if net.isDeparted(p) {
			net.nodesMu.Unlock()
			panic(fmt.Sprintf("runtime: JoinNode peer %d has departed", p))
		}
	}
	o := net.ensureOverlayLocked()
	o.AddNode(peers...)
	v := gossip.Scalar(value, 1)
	proto := net.cfg.NewProtocol()
	proto.Reset(id, o.Neighbors(id), v.Clone())
	nd := &node{
		id:    id,
		proto: proto,
		init:  v.Clone(),
		inbox: make(chan gossip.Message, net.cfg.InboxCapacity),
		rng:   rand.New(rand.NewSource(net.cfg.Seed + int64(id))),
		rec:   net.cfg.Metrics,
	}
	net.nodes = append(net.nodes, nd)
	spawn := net.running
	net.nodesMu.Unlock()

	// Admit the newcomer at every peer: one zero-flow edge each, plus a
	// detector entry so the fresh link is monitored from now on.
	now := net.now()
	for _, p := range peers {
		pn := net.node(p)
		pn.mu.Lock()
		if !pn.crashed {
			pn.proto.OnNeighborJoin(id)
			if pn.det != nil {
				pn.det.AddNeighbor(id, now)
			}
		}
		pn.mu.Unlock()
	}
	net.recomputeTargets()
	net.noteEvent(metrics.EvNodeJoin, id, -1)

	if spawn {
		net.setupDetector(nd, now)
		net.ctxMu.Lock()
		ctx, wg := net.runCtx, net.runWG
		net.ctxMu.Unlock()
		if ctx != nil && ctx.Err() == nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				net.nodeLoop(ctx, nd)
			}()
		}
	}
}

// LeaveNode removes node i gracefully: its queued inbox is folded into
// its protocol, every incident link is torn down with oracle
// notification on both endpoints (reclaiming unacknowledged flow
// deltas), and the node's surplus — its current local mass minus its
// own initial contribution — is absorbed by its lowest-id live neighbor
// (the heir), whose oracle init is credited with the same amount. The
// departed node then falls permanently silent; late traffic from it is
// ignored. No-op on a node that is already crashed or departed. With no
// live neighbor the surplus is lost (event heir −1), mirroring an
// isolated node's crash.
func (net *Network) LeaveNode(i int) {
	nd := net.node(i)
	if nd == nil || net.isDeparted(i) {
		return
	}
	if nd.isCrashed() {
		return // crashed processes cannot run the graceful-leave protocol
	}

	row := net.neighborRow(i)

	// Fold everything already delivered into the leaver's state, so the
	// surplus below accounts for it.
drain:
	for {
		select {
		case msg := <-nd.inbox:
			net.receive(nd, msg)
		default:
			break drain
		}
	}

	// Tear down every incident link on both endpoints. Synchronous (not
	// via the inbox) so the handoff below happens after the edges are
	// closed and no new flow can be staged toward the leaver.
	for _, j32 := range row {
		j := int(j32)
		key := linkKey(i, j)
		net.failedMu.Lock()
		net.failed[key] = true
		net.failedMu.Unlock()
		nd.mu.Lock()
		nd.proto.OnLinkFailure(j)
		if nd.det != nil {
			nd.det.Remove(j)
		}
		nd.mu.Unlock()
		jn := net.node(j)
		if jn == nil {
			continue
		}
		jn.mu.Lock()
		if !jn.crashed {
			jn.proto.OnLinkFailure(i)
			if jn.det != nil {
				jn.det.Remove(i)
			}
		}
		jn.mu.Unlock()
	}

	// Measure the surplus and silence the node in one critical section:
	// after this it neither sends nor processes.
	nd.mu.Lock()
	var surplus gossip.Value
	nd.proto.LocalValueInto(&surplus)
	surplus.SubInPlace(nd.init)
	nd.crashed = true
	nd.silent = true
	nd.hung = false
	nd.mu.Unlock()
	net.departedMu.Lock()
	net.departed[i] = true
	net.departedMu.Unlock()

	// Hand the surplus to the lowest-id live neighbor. This is a pure
	// redistribution — the survivors already hold Σ init − local(i)
	// after the loss-free teardown, so absorbing the surplus lands them
	// on exactly the survivor-roster Σ init. The heir's oracle init is
	// therefore deliberately not credited.
	heir := -1
	for _, j32 := range row {
		j := int(j32)
		jn := net.node(j)
		if jn == nil || jn.isCrashed() || net.isDeparted(j) {
			continue
		}
		jn.mu.Lock()
		jn.proto.AbsorbMass(surplus)
		jn.mu.Unlock()
		heir = j
		break
	}

	// Remove the edges from the overlay and drop stale per-link state so
	// a future rewire re-creating a pair starts clean.
	net.nodesMu.Lock()
	o := net.ensureOverlayLocked()
	for _, j32 := range row {
		o.RemoveEdge(i, int(j32))
	}
	net.nodesMu.Unlock()
	net.lossMu.Lock()
	for _, j32 := range row {
		delete(net.lossRates, linkKey(i, int(j32)))
	}
	net.lossMu.Unlock()

	net.recomputeTargets()
	net.noteEvent(metrics.EvNodeLeave, i, heir)
}

// RewireEdge replaces the overlay edge (a, b) with (a, c): the old edge
// is torn down on both endpoints (reclaiming its in-flight flow) and
// the new edge comes up clean through the OnNeighborJoin handshake.
// Panics when (a, b) is not an edge, c == a, or (a, c) already exists —
// schedules are validated by fault.Plan.Validate before they run.
func (net *Network) RewireEdge(a, b, c int) {
	net.nodesMu.Lock()
	o := net.ensureOverlayLocked()
	switch {
	case !o.HasEdge(a, b):
		net.nodesMu.Unlock()
		panic(fmt.Sprintf("runtime: RewireEdge: (%d, %d) is not an edge", a, b))
	case c == a:
		net.nodesMu.Unlock()
		panic(fmt.Sprintf("runtime: RewireEdge: self-loop (%d, %d)", a, c))
	case o.HasEdge(a, c):
		net.nodesMu.Unlock()
		panic(fmt.Sprintf("runtime: RewireEdge: (%d, %d) already exists", a, c))
	}
	o.RemoveEdge(a, b)
	o.AddEdge(a, c)
	net.nodesMu.Unlock()

	// Old edge down, new edge clean: clear every per-link marker either
	// pairing may have accumulated.
	oldKey, newKey := linkKey(a, b), linkKey(a, c)
	net.failedMu.Lock()
	delete(net.failed, oldKey)
	delete(net.failed, newKey)
	net.failedMu.Unlock()
	net.silencedMu.Lock()
	delete(net.silenced, oldKey)
	delete(net.silenced, newKey)
	net.silencedMu.Unlock()
	net.lossMu.Lock()
	delete(net.lossRates, oldKey)
	net.lossMu.Unlock()

	now := net.now()
	drop := func(at, other int) {
		n := net.node(at)
		if n == nil {
			return
		}
		n.mu.Lock()
		if !n.crashed {
			n.proto.OnLinkFailure(other)
			if n.det != nil {
				n.det.Remove(other)
			}
		}
		n.mu.Unlock()
	}
	admit := func(at, other int) {
		n := net.node(at)
		if n == nil {
			return
		}
		n.mu.Lock()
		if !n.crashed {
			n.proto.OnNeighborJoin(other)
			if n.det != nil {
				n.det.AddNeighbor(other, now)
			}
		}
		n.mu.Unlock()
	}
	drop(a, b)
	drop(b, a)
	admit(a, c)
	admit(c, a)
	net.noteEvent(metrics.EvEdgeRewire, a, b)
}

// SetLinkLoss sets the heterogeneous loss rate of link (a, b): every
// message crossing it (keepalives included) is independently dropped
// with probability p. p = 0 removes the entry. Panics on p outside
// [0, 1].
func (net *Network) SetLinkLoss(a, b int, p float64) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		panic(fmt.Sprintf("runtime: SetLinkLoss rate %v outside [0, 1]", p))
	}
	key := linkKey(a, b)
	net.lossMu.Lock()
	if p == 0 {
		delete(net.lossRates, key)
	} else {
		if net.lossRates == nil {
			net.lossRates = make(map[[2]int]float64)
		}
		net.lossRates[key] = p
	}
	net.lossMu.Unlock()
	net.noteEvent(metrics.EvSetLinkLoss, a, b)
}
