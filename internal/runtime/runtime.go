// Package runtime executes the reduction protocols as a genuinely
// concurrent distributed system: every node is a goroutine, every node
// has a bounded inbox channel, and messages travel between goroutines
// with no global synchronization — the asynchronous, unsynchronized
// execution model the paper targets ("they do not require any kind of
// synchronization", Sec. I).
//
// The round-based engine in internal/sim is the instrument for exactly
// reproducible experiments, including every oracle-free fault class
// (silent crashes, outages, hangs, restarts, churn, per-link loss);
// this package is the existence proof that the same protocol state
// machines run correctly under real concurrency, message reordering,
// arbitrary interleaving and back-pressure loss (a full inbox drops
// messages, which the flow protocols absorb by design).
//
// Its failures are the paper's notified ones (Sec. II-C): FailLink and
// CrashNode drop all later traffic on the affected links and notify the
// surviving endpoints with link-down control messages. The failure is
// abrupt — a data message sent after the link is marked failed and
// before the notification arrives is lost.
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

	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/profiling"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

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
	// Metrics, when non-nil, attaches the shared observability recorder
	// (internal/metrics): delivery counters via the lock-free atomic
	// bank, fault trace events, and one invariant sample per monitor
	// tick at the recorder's cadence. nil keeps every instrumented site
	// a no-op.
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
	return nil
}

// Network is a running (or runnable) concurrent gossip system.
type Network struct {
	cfg     Config // Init is a private copy, the oracle's source of truth
	targets []float64
	nodes   []*node // fixed at New

	start time.Time // set by Run; base of the samples' clock

	ctxMu  sync.Mutex
	runCtx context.Context // set by Run; bounds async notification retries

	targetsMu sync.RWMutex
	failedMu  sync.RWMutex
	failed    map[[2]int]bool

	metricsMu   sync.Mutex
	metricsAddr string // bound address of the Run-scoped metrics endpoint

	drops atomic.Int64 // messages lost to full inboxes
}

type node struct {
	id      int
	mu      sync.Mutex // guards proto, crashed
	proto   gossip.Protocol
	inbox   chan gossip.Message
	rng     *rand.Rand
	sends   int // written only by the node goroutine; read after Run returns
	crashed bool
}

// node returns node i, or nil when i is out of range.
func (net *Network) node(i int) *node {
	if i < 0 || i >= len(net.nodes) {
		return nil
	}
	return net.nodes[i]
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
	// All counter writes in the runtime go through the shared atomic
	// bank — allocate it before any goroutine can race on it.
	cfg.Metrics.EnsureConcurrent()
	n := cfg.Graph.N()
	init := make([]gossip.Value, n)
	for i, v := range cfg.Init {
		init[i] = v.Clone()
	}
	cfg.Init = init
	net := &Network{
		cfg:    cfg,
		nodes:  make([]*node, n),
		failed: make(map[[2]int]bool),
	}
	for i := 0; i < n; i++ {
		p := cfg.NewProtocol()
		p.Reset(i, cfg.Graph.Neighbors(i), init[i].Clone())
		net.nodes[i] = &node{
			id:    i,
			proto: p,
			inbox: make(chan gossip.Message, cfg.InboxCapacity),
			rng:   rand.New(rand.NewSource(cfg.Seed + int64(i))),
		}
	}
	net.targets = make([]float64, cfg.Init[0].Width())
	net.recomputeTargets()
	return net, nil
}

// recomputeTargets refreshes the oracle aggregate over the non-crashed
// nodes (convergence monitoring only — no protocol ever sees it).
func (net *Network) recomputeTargets() {
	width := len(net.targets)
	sums := make([]stats.Sum2, width)
	var wsum stats.Sum2
	for i, nd := range net.nodes {
		if nd.isCrashed() {
			continue
		}
		v := net.cfg.Init[i]
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

// now is the samples' clock: seconds since Run started.
func (net *Network) now() float64 {
	return time.Since(net.start).Seconds()
}

// noteEvent records one fault trace event with a wall-clock timestamp.
// Fault injectors may fire from arbitrary goroutines before Run has
// stamped the start time, so the time base is read under ctxMu (the
// same lock Run writes it under) and events before start carry t=0.
// No-op without a recorder.
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

// FailLink permanently fails the undirected link (i, j) with
// notification: subsequent sends on it are dropped and both endpoints
// receive an asynchronous link-down control message, mirroring an
// external failure detector with perfect knowledge.
func (net *Network) FailLink(i, j int) {
	if !net.markFailed(i, j) {
		return
	}
	net.noteEvent(metrics.EvLinkFail, i, j)
	net.notifyLinkDown(i, j)
	net.notifyLinkDown(j, i)
}

// markFailed marks the link (i, j) failed; it reports false if it was
// already down.
func (net *Network) markFailed(i, j int) bool {
	key := linkKey(i, j)
	net.failedMu.Lock()
	defer net.failedMu.Unlock()
	if net.failed[key] {
		return false
	}
	net.failed[key] = true
	return true
}

// notifyLinkDown enqueues a link-down control message at the surviving
// endpoint. The notification must not be lost to back-pressure, so a
// full inbox is retried from a goroutine (bounded by the run context)
// rather than blocking the caller.
func (net *Network) notifyLinkDown(to, from int) {
	nd := net.node(to)
	if nd == nil {
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

// CrashNode permanently removes node i mid-run with notification: all
// its links fail, the surviving endpoints are notified asynchronously,
// its goroutine stops gossiping, and the oracle aggregate is recomputed
// over the survivors. The crashed node's estimates are reported as NaN
// from then on.
func (net *Network) CrashNode(i int) {
	nd := net.node(i)
	if nd == nil {
		return
	}
	nd.mu.Lock()
	already := nd.crashed
	nd.crashed = true
	nd.mu.Unlock()
	if already {
		return
	}
	net.noteEvent(metrics.EvNodeCrash, i, -1)
	for _, j32 := range net.cfg.Graph.Neighbors(i) {
		if j := int(j32); net.markFailed(i, j) {
			net.notifyLinkDown(j, i)
		}
	}
	net.recomputeTargets()
}

func (nd *node) isCrashed() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.crashed
}

// Estimates snapshots every node's current estimate; crashed nodes
// report NaN in every component.
func (net *Network) Estimates() [][]float64 {
	out := make([][]float64, len(net.nodes))
	width := len(net.cfg.Init[0].X)
	for i, nd := range net.nodes {
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

// MaxError returns the worst relative local error over all nodes and
// components against the oracle aggregate.
func (net *Network) MaxError() float64 {
	worst := 0.0
	targets := net.Targets()
	for i, est := range net.Estimates() {
		if net.nodes[i].isCrashed() {
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

// checkInterval is how often Run's monitor samples the network.
const checkInterval = 200 * time.Microsecond

// RunConfig controls a concurrent run.
type RunConfig struct {
	// Eps is the convergence target checked by the monitor (> 0).
	Eps float64
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
	// TotalSends is the number of messages emitted by all nodes.
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
	net.ctxMu.Lock()
	net.runCtx = ctx
	net.start = time.Now()
	net.ctxMu.Unlock()

	if net.cfg.MetricsAddr != "" {
		srv, err := net.serveMetrics()
		if err != nil {
			return RunResult{}, err
		}
		defer srv.Close()
	}

	var wg sync.WaitGroup
	for _, nd := range net.nodes {
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
			err := net.MaxError()
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
	for _, nd := range net.nodes {
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
	errs := make([]float64, 0, len(net.nodes))
	for i, est := range net.Estimates() {
		if net.nodes[i].isCrashed() {
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
// the initial alive weight (mass in flight).
func (net *Network) massResidual() (mass, inflight float64) {
	targets := net.Targets()
	sums := make([]stats.Sum2, len(targets))
	var wsum, w0 stats.Sum2
	var local gossip.Value
	for i, nd := range net.nodes {
		nd.mu.Lock()
		if nd.crashed {
			nd.mu.Unlock()
			continue
		}
		nd.proto.LocalValueInto(&local)
		nd.mu.Unlock()
		w0.Add(net.cfg.Init[i].W)
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

// nodeLoop is the per-node goroutine: drain the inbox, push to a random
// live neighbor, repeat. A crashed node falls silent but keeps draining
// its inbox so notifications toward it never block.
func (net *Network) nodeLoop(ctx context.Context, nd *node) {
	for {
		select {
		case <-ctx.Done():
			return
		default:
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
		// Fill the push under the node lock; the channel send happens
		// outside it.
		var msg gossip.Message
		send := false
		nd.mu.Lock()
		if !nd.crashed {
			if live := nd.proto.LiveNeighbors(); len(live) > 0 {
				nd.proto.FillMessage(int(live[nd.rng.Intn(len(live))]), &msg)
				send = true
			}
		}
		nd.mu.Unlock()
		if send {
			nd.sends++
			net.deliver(msg)
		}
		if net.cfg.SendPacing > 0 {
			// Plain Sleep: the pacing quantum is far below the context
			// cancellation latency anyone cares about, and the loop
			// re-checks ctx right away.
			time.Sleep(net.cfg.SendPacing)
		}
	}
}

// receive dispatches one delivered message: a link-down notification
// reaches the protocol's failure handler, data reaches Receive.
func (net *Network) receive(nd *node, msg gossip.Message) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.crashed {
		return // drained only so pending notifications don't stall senders
	}
	if msg.Kind == gossip.KindLinkDown {
		nd.proto.OnLinkFailure(msg.From)
		return
	}
	nd.proto.Receive(msg)
}

// deliver routes a message past failed links into the destination
// inbox, dropping on back-pressure.
func (net *Network) deliver(msg gossip.Message) {
	rec := net.cfg.Metrics
	rec.IncShared(metrics.MsgsSent)
	if net.linkFailed(msg.From, msg.To) {
		rec.IncShared(metrics.MsgsLost)
		return
	}
	select {
	case net.nodes[msg.To].inbox <- msg:
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
