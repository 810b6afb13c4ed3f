// Package runtime executes the reduction protocols as a genuinely
// concurrent distributed system: every node is a goroutine, every node
// has a bounded inbox channel, and messages travel between goroutines
// with no global synchronization — the asynchronous, unsynchronized
// execution model the paper targets ("they do not require any kind of
// synchronization", Sec. I).
//
// The round-based engine in internal/sim is the instrument for exactly
// reproducible experiments; this package is the existence proof that the
// same protocol state machines run correctly under real concurrency,
// message reordering, arbitrary interleaving and back-pressure loss
// (a full inbox drops messages, which the flow protocols absorb by
// design). Fault injection composes the same way as in the simulator:
// per-message interceptors plus permanent link failures with endpoint
// notification.
//
// Failures come in two flavors. The oracle paths (FailLink, CrashNode)
// notify the surviving endpoints with link-down control messages — the
// "failure is known" assumption of the paper's Sec. II-C. The silent
// paths (SilenceLink, CrashNodeSilent, HangNode) inject the failure
// without telling anyone; pairing them with Config.Detector runs the
// oracle-free stack: per-neighbor liveness tracked from traffic plus
// keepalives, suspicion by fixed timeout or φ-accrual, eviction through
// the protocols' cheap PCF-style recovery path, and reintegration (via
// OnLinkRecover) when a suspected neighbor's traffic resumes — so
// transient outages and false suspicions heal instead of permanently
// shrinking the graph.
//
// Protocols are not internally synchronized; each node goroutine owns
// its protocol instance and guards it with a per-node mutex so that the
// convergence monitor can take consistent snapshots.
package runtime

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"math"
	"math/rand"
	stdnet "net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pcfreduce/internal/detect"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/profiling"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

// Interceptor mirrors sim.Interceptor for the concurrent runtime. The
// round argument of the simulator is replaced by the sender's send
// sequence number. Implementations must be safe for concurrent use; use
// Locked to wrap a single-threaded injector.
type Interceptor interface {
	Intercept(seq int, msg *gossip.Message) bool
}

// Locked wraps a non-thread-safe interceptor with a mutex.
func Locked(ic interface {
	Intercept(round int, msg *gossip.Message) bool
}) Interceptor {
	return &lockedInterceptor{inner: ic}
}

type lockedInterceptor struct {
	mu    sync.Mutex
	inner interface {
		Intercept(round int, msg *gossip.Message) bool
	}
}

func (l *lockedInterceptor) Intercept(seq int, msg *gossip.Message) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Intercept(seq, msg)
}

// DetectorConfig enables and tunes oracle-free failure detection. Every
// node runs one detect.Detector over its neighbors, fed by all received
// traffic; a live link idle for SuspicionTimeout/5 gets an explicit
// keepalive, and suspected neighbors are probed every twice that so
// that healed links reintegrate instead of staying partitioned (after
// mutual eviction neither side gossips to the other, so without probes
// a recovered neighbor would never be heard again).
type DetectorConfig struct {
	// Policy selects the suspicion rule (default detect.FixedTimeout).
	Policy detect.Policy
	// SuspicionTimeout is the silence threshold of the fixed-timeout
	// policy, and the bootstrap threshold of φ-accrual before enough
	// inter-arrival samples exist. Default 25ms — comfortably above the
	// keepalive cadence yet far below any test timeout.
	SuspicionTimeout time.Duration
	// PhiThreshold is the φ-accrual suspicion level (default 8).
	PhiThreshold float64
}

func (dc DetectorConfig) withDefaults() DetectorConfig {
	if dc.SuspicionTimeout == 0 {
		dc.SuspicionTimeout = 25 * time.Millisecond
	}
	return dc
}

// keepaliveInterval bounds how long a node lets a live link sit idle
// before sending an explicit keepalive; probes toward suspected
// neighbors go out every twice that.
func (dc DetectorConfig) keepaliveInterval() time.Duration {
	return dc.SuspicionTimeout / 5
}

func (dc DetectorConfig) validate() error {
	if dc.SuspicionTimeout <= 0 {
		return errors.New("runtime: DetectorConfig.SuspicionTimeout must be positive")
	}
	if dc.keepaliveInterval() <= 0 {
		return errors.New("runtime: DetectorConfig.SuspicionTimeout is too short for a keepalive interval")
	}
	return dc.detectConfig().Validate()
}

// detectConfig translates the runtime configuration (durations) into the
// engine-agnostic detector configuration (seconds).
func (dc DetectorConfig) detectConfig() detect.Config {
	return detect.Config{
		Policy:       dc.Policy,
		Timeout:      dc.SuspicionTimeout.Seconds(),
		PhiThreshold: dc.PhiThreshold,
	}
}

// Config parameterizes a Network.
type Config struct {
	// Graph is the communication topology.
	Graph *topology.Graph
	// NewProtocol constructs one protocol instance per node.
	NewProtocol func() gossip.Protocol
	// Init holds the per-node initial values (len == Graph.N(), all of
	// the same positive width).
	Init []gossip.Value
	// Seed drives each node's private RNG (node i uses Seed+i).
	Seed int64
	// InboxCapacity bounds each node's inbox channel; sends to a full
	// inbox are dropped (back-pressure loss). 0 selects the default of
	// 256; negative values are a configuration error.
	InboxCapacity int
	// SendPacing is the interval between a node's consecutive sends,
	// modeling the gossip tick of a real deployment. Default 50µs.
	//
	// Pacing is not an optimization: a node that pushes unboundedly
	// fast moves its entire local mass into not-yet-acknowledged flow
	// deltas (every send adds e/2 to an edge flow before the peer has
	// mirrored the previous one), leaving all local masses near 0/0.
	// Flow exchange heals each edge at the next delivery, but only if
	// deliveries keep pace with sends. Negative values disable pacing
	// for tests that deliberately explore that regime.
	SendPacing time.Duration
	// Interceptor, when non-nil, filters/corrupts every message
	// (keepalives included — they cross the same faulty transport).
	Interceptor Interceptor
	// Detector, when non-nil, enables oracle-free failure detection and
	// self-healing; see DetectorConfig.
	Detector *DetectorConfig
	// Metrics, when non-nil, attaches the shared observability recorder
	// (internal/metrics): delivery counters via the lock-free atomic
	// bank, detector/fault trace events, and one invariant sample per
	// monitor tick at the recorder's cadence. nil keeps every
	// instrumented site a no-op.
	Metrics *metrics.Recorder
	// MetricsAddr, when non-empty, serves the observability endpoint for
	// the duration of Run: /metrics (Prometheus text exposition),
	// /debug/vars (expvar, with the recorder published under
	// "pcfreduce") and /debug/pprof. ":0" binds a free port; the bound
	// address is available from Network.MetricsAddr once Run starts.
	MetricsAddr string
}

func (cfg *Config) validate() error {
	if cfg.Graph == nil {
		return errors.New("runtime: Config.Graph is nil")
	}
	n := cfg.Graph.N()
	if n <= 0 {
		return errors.New("runtime: Config.Graph has no nodes")
	}
	if cfg.NewProtocol == nil {
		return errors.New("runtime: Config.NewProtocol is nil")
	}
	if len(cfg.Init) != n {
		return fmt.Errorf("runtime: %d initial values for %d nodes", len(cfg.Init), n)
	}
	width := cfg.Init[0].Width()
	if width <= 0 {
		return errors.New("runtime: initial values must have positive width")
	}
	for i, v := range cfg.Init {
		if v.Width() != width {
			return fmt.Errorf("runtime: initial value width mismatch at node %d (%d, want %d)", i, v.Width(), width)
		}
	}
	if cfg.InboxCapacity < 0 {
		return fmt.Errorf("runtime: Config.InboxCapacity is %d, want > 0 (or 0 for the default)", cfg.InboxCapacity)
	}
	if cfg.Detector != nil {
		// Validate the effective (defaulted) configuration: zero fields
		// mean "use the default", not "invalid".
		if err := cfg.Detector.withDefaults().validate(); err != nil {
			return err
		}
	}
	return nil
}

// Network is a running (or runnable) concurrent gossip system.
type Network struct {
	cfg     Config
	targets []float64

	// nodesMu guards the nodes slice header and the topology overlay:
	// open-world joins append nodes and mutate the overlay mid-run.
	// Node *elements* are immutable pointers; their state is guarded by
	// the per-node mutex as before.
	nodesMu sync.RWMutex
	nodes   []*node
	overlay *topology.Overlay // nil until the first membership operation
	running bool              // set by Run under nodesMu; JoinNode spawns its own goroutine after this

	start time.Time // set by Run; base of the detectors' clock

	ctxMu  sync.Mutex
	runCtx context.Context // set by Run; bounds async notification retries
	runWG  *sync.WaitGroup // set by Run; joined nodes register here

	targetsMu  sync.RWMutex
	failedMu   sync.RWMutex
	failed     map[[2]int]bool
	silencedMu sync.RWMutex
	silenced   map[[2]int]bool

	departedMu sync.RWMutex
	departed   map[int]bool // gracefully departed nodes; late traffic ignored

	lossMu    sync.Mutex
	lossRates map[[2]int]float64 // per-link heterogeneous loss rates
	lossRng   *rand.Rand

	metricsMu   sync.Mutex
	metricsAddr string // bound address of the Run-scoped metrics endpoint

	drops atomic.Int64 // messages lost to full inboxes
}

// allNodes returns the current node slice header. Elements are
// immutable pointers and joins replace the header under nodesMu, so a
// returned header is a consistent snapshot of the membership at call
// time.
func (net *Network) allNodes() []*node {
	net.nodesMu.RLock()
	defer net.nodesMu.RUnlock()
	return net.nodes
}

// node returns node i, or nil when i is out of range.
func (net *Network) node(i int) *node {
	nodes := net.allNodes()
	if i < 0 || i >= len(nodes) {
		return nil
	}
	return nodes[i]
}

// N returns the current node count, including nodes joined mid-run.
func (net *Network) N() int { return len(net.allNodes()) }

// neighborRow returns a copy of node i's current neighbor row —
// overlay-aware once a membership operation has fired.
func (net *Network) neighborRow(i int) []int32 {
	net.nodesMu.RLock()
	defer net.nodesMu.RUnlock()
	if net.overlay != nil {
		return append([]int32(nil), net.overlay.Neighbors(i)...)
	}
	return append([]int32(nil), net.cfg.Graph.Neighbors(i)...)
}

type node struct {
	id         int
	mu         sync.Mutex // guards proto, init, crashed, silent, hung, det, lastSent, keepalives
	proto      gossip.Protocol
	init       gossip.Value // oracle initial value; a leave's heir absorbs the surplus here
	inbox      chan gossip.Message
	rng        *rand.Rand
	sends      int // written only by the node goroutine; read after Run returns
	crashed    bool
	silent     bool // crashed without notification: stops draining too
	hung       bool // transiently frozen: no processing, no sending, state kept
	rec        *metrics.Recorder
	det        *detect.Detector
	lastSent   map[int]float64 // per-neighbor time of last send (detector clock)
	keepalives int
	ckpt       *gossip.State // last CheckpointNode state; nil until one is taken
}

// New builds the network and initializes all protocol instances.
func New(cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.InboxCapacity == 0 {
		cfg.InboxCapacity = 256
	}
	if cfg.SendPacing == 0 {
		cfg.SendPacing = 50 * time.Microsecond
	}
	if cfg.Detector != nil {
		dc := cfg.Detector.withDefaults()
		cfg.Detector = &dc
	}
	// All counter writes in the runtime go through the shared atomic
	// bank — allocate it before any goroutine can race on it.
	cfg.Metrics.EnsureConcurrent()
	n := cfg.Graph.N()
	net := &Network{
		cfg:      cfg,
		nodes:    make([]*node, n),
		failed:   make(map[[2]int]bool),
		silenced: make(map[[2]int]bool),
		departed: make(map[int]bool),
		lossRng:  rand.New(rand.NewSource(cfg.Seed ^ 0x5bd1e995)),
	}
	for i := 0; i < n; i++ {
		p := cfg.NewProtocol()
		p.Reset(i, cfg.Graph.Neighbors(i), cfg.Init[i].Clone())
		net.nodes[i] = &node{
			id:    i,
			proto: p,
			init:  cfg.Init[i].Clone(),
			inbox: make(chan gossip.Message, cfg.InboxCapacity),
			rng:   rand.New(rand.NewSource(cfg.Seed + int64(i))),
			rec:   cfg.Metrics,
		}
	}
	net.targets = make([]float64, cfg.Init[0].Width())
	net.recomputeTargets()
	return net, nil
}

// recomputeTargets refreshes the oracle aggregate over the non-crashed
// nodes (convergence monitoring only — no protocol ever sees it). The
// per-node init values — not Config.Init — are the source of truth:
// joined nodes extend the roster and a leave's heir absorbs the
// departing surplus into its init, keeping the oracle aligned with the
// mass the protocols actually hold.
func (net *Network) recomputeTargets() {
	width := len(net.targets)
	sums := make([]stats.Sum2, width)
	var wsum stats.Sum2
	for _, nd := range net.allNodes() {
		nd.mu.Lock()
		down := nd.crashed
		v := nd.init.Clone()
		nd.mu.Unlock()
		if down {
			continue
		}
		wsum.Add(v.W)
		for k, x := range v.X {
			sums[k].Add(x)
		}
	}
	net.targetsMu.Lock()
	for k := range net.targets {
		net.targets[k] = sums[k].Value() / wsum.Value()
	}
	net.targetsMu.Unlock()
}

// Targets returns a snapshot of the oracle aggregate per component.
func (net *Network) Targets() []float64 {
	net.targetsMu.RLock()
	defer net.targetsMu.RUnlock()
	return append([]float64(nil), net.targets...)
}

// now is the detectors' clock: seconds since Run started.
func (net *Network) now() float64 {
	return time.Since(net.start).Seconds()
}

// noteEvent records one fault/detector trace event with a wall-clock
// timestamp. Fault injectors may fire from arbitrary goroutines before
// Run has stamped the start time, so the time base is read under ctxMu
// (the same lock Run writes it under) and events before start carry
// t=0. No-op without a recorder.
func (net *Network) noteEvent(kind metrics.EventKind, a, b int) {
	rec := net.cfg.Metrics
	if rec == nil {
		return
	}
	net.ctxMu.Lock()
	start := net.start
	net.ctxMu.Unlock()
	t := 0.0
	if !start.IsZero() {
		t = time.Since(start).Seconds()
	}
	rec.RecordEvent(metrics.Event{Kind: kind, Round: -1, TimeS: t, A: a, B: b})
}

// FailLink permanently fails the undirected link (i, j) with oracle
// notification: subsequent sends on it are dropped and both endpoints
// receive an asynchronous link-down control message, mirroring an
// external failure detector with perfect knowledge. For the oracle-free
// model see SilenceLink.
func (net *Network) FailLink(i, j int) {
	key := linkKey(i, j)
	net.failedMu.Lock()
	already := net.failed[key]
	net.failed[key] = true
	net.failedMu.Unlock()
	if already {
		return
	}
	net.noteEvent(metrics.EvLinkFail, i, j)
	net.notifyLinkDown(i, j)
	net.notifyLinkDown(j, i)
}

// notifyLinkDown enqueues a link-down control message at the surviving
// endpoint. The notification must not be lost to back-pressure, so a
// full inbox is retried from a goroutine (bounded by the run context)
// rather than blocking the caller; silently crashed nodes no longer
// drain their inbox and are skipped.
func (net *Network) notifyLinkDown(to, from int) {
	nd := net.node(to)
	if nd == nil {
		return
	}
	nd.mu.Lock()
	dead := nd.silent
	nd.mu.Unlock()
	if dead {
		return
	}
	msg := gossip.Message{From: from, To: to, Kind: gossip.KindLinkDown}
	select {
	case nd.inbox <- msg:
		return
	default:
	}
	net.ctxMu.Lock()
	ctx := net.runCtx
	net.ctxMu.Unlock()
	if ctx == nil {
		// Not running yet and the inbox is full: nothing is draining, so
		// retrying cannot help; deliver synchronously.
		nd.inbox <- msg
		return
	}
	go func() {
		select {
		case nd.inbox <- msg:
		case <-ctx.Done():
		}
	}()
}

func (net *Network) linkFailed(i, j int) bool {
	net.failedMu.RLock()
	defer net.failedMu.RUnlock()
	return net.failed[linkKey(i, j)]
}

// SilenceLink makes the undirected link (i, j) silently drop all traffic
// in both directions: no endpoint is notified. Without a detector the
// protocols keep pushing into the void; with Config.Detector set, both
// endpoints suspect each other after the suspicion threshold and evict
// the link through the same recovery path the oracle uses.
func (net *Network) SilenceLink(i, j int) {
	net.silencedMu.Lock()
	already := net.silenced[linkKey(i, j)]
	net.silenced[linkKey(i, j)] = true
	net.silencedMu.Unlock()
	if !already {
		net.noteEvent(metrics.EvLinkSilence, i, j)
	}
}

// RestoreLink heals a link silenced by SilenceLink: delivery resumes,
// and with a detector the endpoints reintegrate each other (probes cross
// the healed link, each side's Heard transitions the other back to
// alive, and the protocols restore the edge via OnLinkRecover).
func (net *Network) RestoreLink(i, j int) {
	net.silencedMu.Lock()
	was := net.silenced[linkKey(i, j)]
	delete(net.silenced, linkKey(i, j))
	net.silencedMu.Unlock()
	if was {
		net.noteEvent(metrics.EvLinkRestore, i, j)
	}
}

func (net *Network) linkSilenced(i, j int) bool {
	net.silencedMu.RLock()
	defer net.silencedMu.RUnlock()
	return net.silenced[linkKey(i, j)]
}

// CrashNode permanently removes node i mid-run with oracle notification:
// all its links fail, the surviving endpoints are notified
// asynchronously, its goroutine stops gossiping, and the oracle
// aggregate is recomputed over the survivors. The crashed node's
// estimates are reported as NaN from then on.
func (net *Network) CrashNode(i int) {
	if !net.markCrashed(i, false) {
		return
	}
	net.noteEvent(metrics.EvNodeCrash, i, -1)
	for _, j32 := range net.neighborRow(i) {
		j := int(j32)
		key := linkKey(i, j)
		net.failedMu.Lock()
		already := net.failed[key]
		net.failed[key] = true
		net.failedMu.Unlock()
		if !already {
			net.notifyLinkDown(j, i)
		}
	}
	net.recomputeTargets()
}

// CrashNodeSilent kills node i without telling anyone: it stops sending
// and stops draining its inbox, exactly like a dead process. No links
// are marked failed and no notifications are sent — surviving neighbors
// must detect the crash from silence (Config.Detector). The oracle
// aggregate is still recomputed over the survivors, for measurement
// only.
func (net *Network) CrashNodeSilent(i int) {
	if !net.markCrashed(i, true) {
		return
	}
	net.noteEvent(metrics.EvNodeCrashSilent, i, -1)
	net.recomputeTargets()
}

// markCrashed transitions node i to crashed (and silent, for the
// oracle-free variant); it reports false if the node was already down.
func (net *Network) markCrashed(i int, silent bool) bool {
	nd := net.node(i)
	if nd == nil {
		return false
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.crashed {
		return false
	}
	nd.crashed = true
	nd.silent = silent
	return true
}

// HangNode transiently freezes node i: it stops processing and sending
// but keeps all protocol state — a long GC pause, an overloaded host, a
// partitioned process. Neighbors running a detector evict it after the
// suspicion threshold; once ResumeNode is called its traffic resumes and
// the neighbors reintegrate it.
func (net *Network) HangNode(i int) {
	nd := net.node(i)
	if nd == nil {
		return
	}
	nd.mu.Lock()
	was := nd.hung
	nd.hung = true
	nd.mu.Unlock()
	if !was {
		net.noteEvent(metrics.EvNodeHang, i, -1)
	}
}

// ResumeNode unfreezes a node frozen by HangNode.
func (net *Network) ResumeNode(i int) {
	nd := net.node(i)
	if nd == nil {
		return
	}
	nd.mu.Lock()
	was := nd.hung
	nd.hung = false
	nd.mu.Unlock()
	if was {
		net.noteEvent(metrics.EvNodeResume, i, -1)
	}
}

// CheckpointNode freezes node i's current protocol state as its local
// crash-restart checkpoint — the save point RestartNode revives from.
func (net *Network) CheckpointNode(i int) {
	nd := net.node(i)
	if nd == nil {
		return
	}
	nd.mu.Lock()
	w := &gossip.StateWriter{}
	nd.proto.SaveState(w)
	nd.ckpt = &w.State
	nd.mu.Unlock()
	net.noteEvent(metrics.EvNodeCheckpoint, i, -1)
}

// RestartNode revives a crashed node from its last CheckpointNode state
// (or from a clean Reset when it never checkpointed) — the restart-
// from-snapshot recovery mode, to be paired with CrashNodeSilent: a
// notified CrashNode already tore down the node's links permanently, so
// a restart after it rejoins nothing. The stale inbox accumulated while
// the process was down is dropped (a restarted process has a fresh
// queue), the node's goroutine resumes gossiping from the restored
// state, and its resumed traffic is the snapshot-restore handshake:
// neighbors whose detectors evicted the node observe it and reintegrate
// via OnLinkRecover. The node's own detector restarts fresh, treating
// the restart moment as last contact with every neighbor. No-op on a
// node that is not crashed.
func (net *Network) RestartNode(i int) {
	nd := net.node(i)
	if nd == nil {
		return
	}
	nd.mu.Lock()
	if !nd.crashed || net.isDeparted(i) {
		// Departure is permanent: the surplus handoff already moved the
		// node's mass to an heir, so reviving it would double-count.
		nd.mu.Unlock()
		return
	}
	nd.crashed = false
	nd.silent = false
	nd.hung = false
drain:
	for {
		select {
		case <-nd.inbox:
		default:
			break drain
		}
	}
	neighbors := net.neighborRow(nd.id)
	nd.proto.Reset(nd.id, neighbors, nd.init.Clone())
	if nd.ckpt != nil {
		nd.proto.LoadState(gossip.NewStateReader(*nd.ckpt))
	}
	if dc := net.cfg.Detector; dc != nil && nd.det != nil {
		nd.det = detect.New(dc.detectConfig(), neighbors, net.now())
		nd.lastSent = make(map[int]float64, len(neighbors))
	}
	nd.mu.Unlock()
	net.recomputeTargets()
	net.noteEvent(metrics.EvNodeRestart, i, -1)
}

func (nd *node) isCrashed() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.crashed
}

// Estimates snapshots every node's current estimate; crashed nodes
// report NaN in every component.
func (net *Network) Estimates() [][]float64 {
	nodes := net.allNodes()
	out := make([][]float64, len(nodes))
	width := len(net.cfg.Init[0].X)
	for i, nd := range nodes {
		nd.mu.Lock()
		if nd.crashed {
			est := make([]float64, width)
			for k := range est {
				est[k] = math.NaN()
			}
			out[i] = est
		} else {
			out[i] = nd.proto.EstimateInto(nil)
		}
		nd.mu.Unlock()
	}
	return out
}

// Suspects returns the neighbors node i currently suspects (empty when
// no detector is configured or the run has not started).
func (net *Network) Suspects(i int) []int {
	nd := net.node(i)
	if nd == nil {
		return nil
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.det == nil {
		return nil
	}
	return nd.det.Suspects()
}

// DetectorStats aggregates the detection activity of all nodes. Safe to
// call mid-run.
type DetectorStats struct {
	// Suspicions counts alive→suspected transitions over all detectors.
	Suspicions int
	// Reintegrations counts suspected→alive healings.
	Reintegrations int
	// Keepalives counts keepalive and probe messages sent.
	Keepalives int
}

// DetectorStats sums the per-node detector counters.
func (net *Network) DetectorStats() DetectorStats {
	var out DetectorStats
	for _, nd := range net.allNodes() {
		nd.mu.Lock()
		if nd.det != nil {
			out.Suspicions += nd.det.Suspicions
			out.Reintegrations += nd.det.Reintegrations
		}
		out.Keepalives += nd.keepalives
		nd.mu.Unlock()
	}
	return out
}

// MaxError returns the worst relative local error over all nodes and
// components against the oracle aggregate.
func (net *Network) MaxError() float64 {
	worst := 0.0
	targets := net.Targets()
	nodes := net.allNodes()
	for i, est := range net.Estimates() {
		if i >= len(nodes) || nodes[i].isCrashed() {
			continue
		}
		for k, t := range targets {
			err := stats.RelErr(est[k], t)
			if math.IsNaN(err) {
				return math.NaN()
			}
			if err > worst {
				worst = err
			}
		}
	}
	return worst
}

// Spread returns the worst relative disagreement between node estimates
// over all components: max_k (max_i est_i[k] − min_i est_i[k]) scaled by
// the component magnitude. Unlike MaxError it requires no oracle.
func (net *Network) Spread() float64 {
	ests := net.Estimates()
	nodes := net.allNodes()
	worst := 0.0
	width := len(net.cfg.Init[0].X)
	for k := 0; k < width; k++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, est := range ests {
			if i >= len(nodes) || nodes[i].isCrashed() {
				continue
			}
			v := est[k]
			if math.IsNaN(v) {
				return math.NaN()
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		scale := math.Max(math.Abs(lo), math.Abs(hi))
		gap := hi - lo
		if scale > 0 {
			gap /= scale
		}
		if gap > worst {
			worst = gap
		}
	}
	return worst
}

// checkInterval is how often Run's monitor samples the network.
const checkInterval = 200 * time.Microsecond

// RunConfig controls a concurrent run.
type RunConfig struct {
	// Eps is the convergence target checked by the monitor (> 0).
	Eps float64
	// OracleFree switches the monitor from oracle error (distance to
	// the true aggregate, which a real deployment does not know) to
	// estimate spread: the run converges when the relative gap between
	// the largest and smallest node estimate is ≤ Eps on every
	// component. Spread-based detection needs no knowledge of the
	// target; for mass-conserving protocols, spread ≤ ε implies all
	// estimates are within ε of the aggregate they jointly converge to.
	OracleFree bool
	// Timeout bounds the run wall-clock (required, > 0).
	Timeout time.Duration
	// Stable requires the error to hold below Eps for this many
	// consecutive monitor samples (default 1). NaN estimates (weight
	// mass not yet spread) never count as converged.
	Stable int
}

func (cfg *RunConfig) validate() error {
	if cfg.Eps <= 0 {
		return errors.New("runtime: RunConfig.Eps must be positive")
	}
	if cfg.Timeout <= 0 {
		return errors.New("runtime: RunConfig.Timeout must be positive")
	}
	return nil
}

// RunResult describes a concurrent run.
type RunResult struct {
	// Converged reports whether Eps was reached within Timeout.
	Converged bool
	// FinalMaxError is the last sampled maximal relative error.
	FinalMaxError float64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// TotalSends is the number of messages emitted by all nodes,
	// keepalives and probes included.
	TotalSends int
}

// Run starts all node goroutines, monitors convergence, and shuts the
// network down. It returns once converged or timed out; the Network can
// be Run again only after re-construction.
func (net *Network) Run(ctx context.Context, cfg RunConfig) (RunResult, error) {
	if err := cfg.validate(); err != nil {
		return RunResult{}, err
	}
	if cfg.Stable <= 0 {
		cfg.Stable = 1
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	var wg sync.WaitGroup
	net.ctxMu.Lock()
	net.runCtx = ctx
	net.runWG = &wg
	net.start = time.Now()
	net.ctxMu.Unlock()

	if net.cfg.MetricsAddr != "" {
		srv, err := net.serveMetrics()
		if err != nil {
			return RunResult{}, err
		}
		defer srv.Close()
	}
	// Mark the network running and snapshot the membership under one
	// lock: a concurrent JoinNode either lands in this snapshot (and is
	// spawned below) or observes running==true (and spawns its own
	// goroutine) — never both, never neither.
	net.nodesMu.Lock()
	net.running = true
	spawn := net.nodes
	net.nodesMu.Unlock()

	for _, nd := range spawn {
		net.setupDetector(nd, 0)
	}
	for _, nd := range spawn {
		wg.Add(1)
		go func(nd *node) {
			defer wg.Done()
			net.nodeLoop(ctx, nd)
		}(nd)
	}

	res := RunResult{FinalMaxError: math.Inf(1)}
	stable := 0
	tick := 0
	ticker := time.NewTicker(checkInterval)
	defer ticker.Stop()
monitor:
	for {
		select {
		case <-ctx.Done():
			break monitor
		case <-ticker.C:
			tick++
			var err float64
			if cfg.OracleFree {
				err = net.Spread()
			} else {
				err = net.MaxError()
			}
			if net.cfg.Metrics.Due(tick) {
				net.recordSample(tick)
			}
			res.FinalMaxError = err
			if !math.IsNaN(err) && err <= cfg.Eps {
				stable++
				if stable >= cfg.Stable {
					res.Converged = true
					break monitor
				}
			} else {
				stable = 0
			}
		}
	}
	cancel()
	wg.Wait()
	res.Elapsed = time.Since(net.start)
	for _, nd := range net.allNodes() {
		res.TotalSends += nd.sends
	}
	return res, nil
}

// serveMetrics binds Config.MetricsAddr and serves the observability
// endpoint: /metrics (Prometheus text), /debug/vars (expvar, recorder
// published under "pcfreduce") and /debug/pprof. The caller closes the
// returned server when the run ends.
func (net *Network) serveMetrics() (*http.Server, error) {
	ln, err := stdnet.Listen("tcp", net.cfg.MetricsAddr)
	if err != nil {
		return nil, fmt.Errorf("runtime: metrics endpoint: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", net.cfg.Metrics.Handler())
	metrics.PublishExpvar(net.cfg.Metrics)
	mux.Handle("/debug/vars", expvar.Handler())
	profiling.AttachPprof(mux)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	net.metricsMu.Lock()
	net.metricsAddr = ln.Addr().String()
	net.metricsMu.Unlock()
	return srv, nil
}

// MetricsAddr returns the bound address of the metrics endpoint ("" until
// Run has started it). With Config.MetricsAddr ":0" this is where the
// kernel actually put it.
func (net *Network) MetricsAddr() string {
	net.metricsMu.Lock()
	defer net.metricsMu.Unlock()
	return net.metricsAddr
}

// recordSample takes one observability sample from the monitor loop:
// per-node error quantiles, the mass-conservation residual and the
// merged counters. Node states are snapshotted one at a time under the
// per-node locks, so unlike the simulator's barrier probe the sums are
// not a globally consistent cut — the ratio residual absorbs most of
// that churn (mass moves x and w together), but runtime samples are a
// trend signal, not an exact invariant. AntiSym is -1: mirror flow
// pairs cannot be read atomically across two goroutines.
//
// With timing enabled on the recorder, the probe's own wall-clock is
// recorded as PhaseSample (bank 0 — the monitor goroutine is the sole
// writer), so observation cost shows up in the flight recorder like
// any other phase. Timing off issues no clock reads at all.
func (net *Network) recordSample(tick int) {
	rec := net.cfg.Metrics
	var probeStart time.Time
	if rec.TimingEnabled() {
		probeStart = time.Now()
		defer func() {
			rec.Timing(0).Observe(metrics.PhaseSample, time.Since(probeStart).Nanoseconds())
		}()
	}
	errs := net.nodeErrors()
	worst := 0.0
	for _, e := range errs {
		if math.IsNaN(e) {
			worst = math.NaN()
			break
		}
		if e > worst {
			worst = e
		}
	}
	p50, p90, p99 := rec.ErrQuantiles(errs)
	mass, inflight := net.massResidual()
	rec.RecordSample(metrics.Sample{
		Round:        tick,
		TimeS:        metrics.Float(net.now()),
		MaxErr:       metrics.Float(worst),
		P50:          metrics.Float(p50),
		P90:          metrics.Float(p90),
		P99:          metrics.Float(p99),
		MassResidual: metrics.Float(mass),
		InFlight:     metrics.Float(inflight),
		AntiSym:      -1,
		Counters:     rec.Counters(),
	})
}

// nodeErrors returns each non-crashed node's worst relative error over
// all components against the oracle aggregate.
func (net *Network) nodeErrors() []float64 {
	targets := net.Targets()
	ests := net.Estimates()
	nodes := net.allNodes()
	errs := make([]float64, 0, len(nodes))
	for i, est := range ests {
		if i >= len(nodes) || nodes[i].isCrashed() {
			continue
		}
		worst := 0.0
		for k, t := range targets {
			err := stats.RelErr(est[k], t)
			if math.IsNaN(err) {
				worst = math.NaN()
				break
			}
			if err > worst {
				worst = err
			}
		}
		errs = append(errs, worst)
	}
	return errs
}

// massResidual sums every non-crashed node's local mass (compensated)
// and reports the worst per-component relative deviation of the ratio
// Σx/Σw from the oracle target, plus the relative deviation of Σw from
// the initial alive weight (mass in flight or held by hung nodes).
func (net *Network) massResidual() (mass, inflight float64) {
	targets := net.Targets()
	sums := make([]stats.Sum2, len(targets))
	var wsum, w0 stats.Sum2
	var local gossip.Value
	for _, nd := range net.allNodes() {
		nd.mu.Lock()
		if nd.crashed {
			nd.mu.Unlock()
			continue
		}
		nd.proto.LocalValueInto(&local)
		initW := nd.init.W
		nd.mu.Unlock()
		w0.Add(initW)
		wsum.Add(local.W)
		for k, x := range local.X {
			sums[k].Add(x)
		}
	}
	w := wsum.Value()
	for k, t := range targets {
		resid := math.Abs(sums[k].Value()/w-t) / math.Max(1, math.Abs(t))
		if math.IsNaN(resid) {
			mass = math.NaN()
			break
		}
		if resid > mass {
			mass = resid
		}
	}
	iw := w0.Value()
	inflight = math.Abs(iw-w) / math.Max(1, math.Abs(iw))
	return mass, inflight
}

// nodeLoop is the per-node goroutine: drain the inbox, run the failure
// detector, push to a random live neighbor, keep idle links alive,
// repeat.
func (net *Network) nodeLoop(ctx context.Context, nd *node) {
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		nd.mu.Lock()
		frozen := nd.silent || nd.hung
		nd.mu.Unlock()
		if frozen {
			// Dead or hung: no processing, no sending. The inbox fills up
			// and senders drop on back-pressure, exactly like a real dead
			// process's socket buffers.
			time.Sleep(100 * time.Microsecond)
			continue
		}
		// Drain everything currently queued.
		for {
			select {
			case msg := <-nd.inbox:
				net.receive(nd, msg)
				continue
			default:
			}
			break
		}
		// Suspicion pass, regular push, keepalive pass — under one lock
		// acquisition; actual channel sends happen outside the lock.
		now := net.now()
		nd.mu.Lock()
		if nd.det != nil && !nd.crashed {
			for _, j := range nd.det.Check(now) {
				nd.proto.OnLinkFailure(j)
				if nd.rec != nil {
					nd.rec.IncShared(metrics.Suspicions)
					nd.rec.IncShared(metrics.Evictions)
					nd.rec.RecordEvent(metrics.Event{Kind: metrics.EvLinkEvicted, Round: -1, TimeS: now, A: nd.id, B: j})
				}
			}
		}
		var out []gossip.Message
		if !nd.crashed {
			// Push to one random live neighbor (crashed nodes fall silent
			// but keep draining their inbox so notifications don't block).
			if live := nd.proto.LiveNeighbors(); len(live) > 0 {
				out = append(out, gossip.Message{})
				msg := &out[len(out)-1]
				nd.proto.FillMessage(int(live[nd.rng.Intn(len(live))]), msg)
				if nd.lastSent != nil {
					nd.lastSent[msg.To] = now
				}
			}
			if nd.det != nil {
				out = nd.appendKeepalives(out, now, net.cfg.Detector)
			}
		}
		nd.mu.Unlock()
		for _, msg := range out {
			nd.sends++
			net.deliver(nd, msg)
		}
		if net.cfg.SendPacing > 0 {
			// Plain Sleep: the pacing quantum is far below the context
			// cancellation latency anyone cares about, and the loop
			// re-checks ctx right away.
			time.Sleep(net.cfg.SendPacing)
		}
	}
}

// appendKeepalives schedules keepalives for idle live links and probes
// for suspected neighbors. Caller holds nd.mu.
func (nd *node) appendKeepalives(out []gossip.Message, now float64, dc *DetectorConfig) []gossip.Message {
	keepalive := dc.keepaliveInterval().Seconds()
	for _, j32 := range nd.proto.LiveNeighbors() {
		j := int(j32)
		if now-nd.lastSent[j] >= keepalive {
			out = append(out, gossip.Message{From: nd.id, To: j, Kind: gossip.KindKeepalive})
			nd.lastSent[j] = now
			nd.keepalives++
		}
	}
	probe := (2 * dc.keepaliveInterval()).Seconds()
	for _, j := range nd.det.Suspects() {
		if now-nd.lastSent[j] >= probe {
			out = append(out, gossip.Message{From: nd.id, To: j, Kind: gossip.KindKeepalive})
			nd.lastSent[j] = now
			nd.keepalives++
		}
	}
	return out
}

// receive dispatches one delivered message: control messages feed the
// detector / failure handling, data messages additionally reach the
// protocol. Any traffic from a suspected neighbor reintegrates it first
// (the suspicion was false or the outage healed), so the protocol never
// processes data on an edge it currently considers failed.
func (net *Network) receive(nd *node, msg gossip.Message) {
	now := net.now()
	if net.isDeparted(msg.From) {
		// Late traffic from a gracefully departed node: its mass was
		// already handed to an heir, so absorbing the message would
		// double-count. The flush in LeaveNode makes this rare.
		return
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.crashed {
		return // drained only so pending notifications don't stall senders
	}
	switch msg.Kind {
	case gossip.KindLinkDown:
		// Oracle notification: authoritative and permanent. Stop
		// monitoring and probing the neighbor for good.
		nd.proto.OnLinkFailure(msg.From)
		if nd.det != nil {
			nd.det.Remove(msg.From)
		}
	case gossip.KindKeepalive:
		net.heardLocked(nd, msg.From, now)
	default:
		if nd.det != nil && nd.det.Removed(msg.From) {
			return // late traffic from an authoritatively failed neighbor
		}
		net.heardLocked(nd, msg.From, now)
		nd.proto.Receive(msg)
	}
}

// heardLocked feeds the detector and performs reintegration when a
// suspected neighbor's traffic resumes. Caller holds nd.mu.
func (net *Network) heardLocked(nd *node, from int, now float64) {
	if nd.det == nil {
		return
	}
	if nd.det.Heard(from, now) {
		nd.proto.OnLinkRecover(from)
		if nd.rec != nil {
			nd.rec.IncShared(metrics.Reintegrations)
			nd.rec.RecordEvent(metrics.Event{Kind: metrics.EvLinkReintegrated, Round: -1, TimeS: now, A: nd.id, B: from})
		}
	}
}

// deliver routes a message through failures and the interceptor into the
// destination inbox, dropping on back-pressure.
func (net *Network) deliver(from *node, msg gossip.Message) {
	rec := net.cfg.Metrics
	if msg.Kind == gossip.KindKeepalive {
		rec.IncShared(metrics.Keepalives)
	} else {
		rec.IncShared(metrics.MsgsSent)
	}
	if net.linkFailed(msg.From, msg.To) || net.linkSilenced(msg.From, msg.To) {
		rec.IncShared(metrics.MsgsLost)
		return
	}
	if net.lossDrop(msg.From, msg.To) {
		rec.IncShared(metrics.MsgsLost)
		return
	}
	if ic := net.cfg.Interceptor; ic != nil && !ic.Intercept(from.sends, &msg) {
		rec.IncShared(metrics.MsgsDropped)
		return
	}
	to := net.node(msg.To)
	if to == nil {
		rec.IncShared(metrics.MsgsLost)
		return
	}
	select {
	case to.inbox <- msg:
		rec.IncShared(metrics.MsgsDelivered)
	default:
		// Inbox full: the message is lost. Flow-based protocols heal at
		// the next successful exchange; push-sum does not — which is
		// the point the paper makes about it.
		net.drops.Add(1)
		rec.IncShared(metrics.MsgsLost)
	}
}

// Drops returns the number of messages lost to full inboxes
// (back-pressure) over the network's lifetime.
func (net *Network) Drops() int64 { return net.drops.Load() }

func linkKey(i, j int) [2]int {
	if i < j {
		return [2]int{i, j}
	}
	return [2]int{j, i}
}
