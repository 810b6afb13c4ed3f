// Package detect implements the oracle-free failure detector shared by
// both execution engines. The paper (like most of the gossip-reduction
// literature) assumes the endpoints of a permanently failed link or the
// neighbors of a crashed node *learn* of the failure; in this repository
// that knowledge was historically delivered by an oracle — the engines'
// FailLink/CrashNode methods synthesize link-down notifications. A real
// deployment has no oracle: failures must be inferred from silence, false
// suspicions during transient outages must be tolerated, and a suspected
// neighbor whose traffic resumes must be reintegrated instead of being
// excluded forever. That is the dependability layer studied by Jesus,
// Baquero and Almeida ("Dependability in Aggregation by Averaging") and
// the detector here follows the same philosophy: detection and healing
// are part of the protocol stack, not an external assumption.
//
// The Detector is a pure state machine over an abstract clock, so the
// concurrent runtime drives one instance per node with wall-clock seconds
// while the round simulator drives a mirrored instance with round
// numbers — detection-latency experiments are therefore exactly
// reproducible in the simulator and the same code paths run for real in
// the goroutine runtime.
//
// Two suspicion policies are provided:
//
//   - FixedTimeout: a neighbor silent for longer than Config.Timeout is
//     suspected. Simple, predictable detection latency, but the timeout
//     must be tuned to the traffic pattern: too small yields false
//     suspicions under scheduling jitter, too large delays eviction.
//
//   - PhiAccrual: the φ-accrual detector of Hayashibara et al. (SRDS'04).
//     Inter-arrival times of traffic from each neighbor are tracked in a
//     sliding window; the suspicion level φ(t) = −log₁₀ P(silence ≥ t)
//     under a normal model of the observed inter-arrivals grows
//     continuously with silence, and the neighbor is suspected when φ
//     exceeds Config.PhiThreshold. The threshold directly bounds the
//     false-positive rate (φ = k ⇒ P ≈ 10⁻ᵏ under the model) and the
//     detector adapts to each link's actual traffic cadence.
//
// Suspicion is not permanent: Heard on a suspected neighbor reports a
// reintegration, which the engines translate into OnLinkRecover on the
// protocol (the self-healing path). Remove withdraws a neighbor for good
// when an authoritative notification (the oracle, or an administrative
// action) confirms the failure, stopping further monitoring and probing.
package detect

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Policy selects how silence is turned into suspicion.
type Policy int

const (
	// FixedTimeout suspects a neighbor after Config.Timeout time units
	// of silence.
	FixedTimeout Policy = iota
	// PhiAccrual suspects a neighbor when the φ-accrual suspicion level
	// of its silence exceeds Config.PhiThreshold.
	PhiAccrual
)

// String returns the policy's name.
func (p Policy) String() string {
	switch p {
	case FixedTimeout:
		return "fixed-timeout"
	case PhiAccrual:
		return "phi-accrual"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterizes a Detector. Time is abstract: the concurrent
// runtime uses seconds, the round simulator uses rounds. All durations
// are in those engine units.
type Config struct {
	// Policy selects the suspicion rule (default FixedTimeout).
	Policy Policy
	// Timeout is the FixedTimeout silence threshold; under PhiAccrual it
	// is the bootstrap threshold used until a neighbor has MinSamples
	// inter-arrival observations (required > 0).
	Timeout float64
	// PhiThreshold is the PhiAccrual suspicion level (default 8, i.e.
	// a model false-positive probability of about 1e-8).
	PhiThreshold float64
	// WindowSize is the number of inter-arrival samples kept per
	// neighbor for the φ estimate (default 64).
	WindowSize int
	// MinSamples is the number of observations required before the φ
	// model is trusted; until then Timeout applies (default 4).
	MinSamples int
	// MinStdDev floors the inter-arrival standard deviation so that a
	// perfectly regular schedule does not make φ explode on the first
	// jitter (default Timeout/20).
	MinStdDev float64
}

func (c Config) withDefaults() Config {
	if c.PhiThreshold == 0 {
		c.PhiThreshold = 8
	}
	if c.WindowSize == 0 {
		c.WindowSize = 64
	}
	if c.MinSamples == 0 {
		c.MinSamples = 4
	}
	if c.MinStdDev == 0 {
		c.MinStdDev = c.Timeout / 20
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Policy != FixedTimeout && c.Policy != PhiAccrual {
		return fmt.Errorf("detect: unknown policy %d", int(c.Policy))
	}
	if !(c.Timeout > 0) {
		return errors.New("detect: Config.Timeout must be positive")
	}
	if c.PhiThreshold < 0 || c.WindowSize < 0 || c.MinSamples < 0 || c.MinStdDev < 0 {
		return errors.New("detect: negative detector parameter")
	}
	return nil
}

// neighborState is the per-neighbor liveness record. The arrival
// window exists from the first observed inter-arrival on, and only
// under PhiAccrual, so a detector that has heard nothing yet, or runs
// FixedTimeout, costs a few words per neighbor.
type neighborState struct {
	lastHeard float64
	win       *arrivals // nil until the first observation
	suspected bool
	removed   bool
}

// arrivals is a sliding window of inter-arrival times (PhiAccrual).
type arrivals struct {
	samples []float64
	next    int // ring-buffer write position
	sum     float64
	sumSq   float64
}

func (ns *neighborState) observe(interval float64, window int) {
	a := ns.win
	if a == nil {
		a = &arrivals{}
		ns.win = a
	}
	if len(a.samples) < window {
		a.samples = append(a.samples, interval)
	} else {
		old := a.samples[a.next]
		a.sum -= old
		a.sumSq -= old * old
		a.samples[a.next] = interval
		a.next = (a.next + 1) % window
	}
	a.sum += interval
	a.sumSq += interval * interval
}

// observed is the number of inter-arrival samples in the window.
func (ns *neighborState) observed() int {
	if ns.win == nil {
		return 0
	}
	return len(ns.win.samples)
}

func (ns *neighborState) meanStd() (mean, std float64) {
	a := ns.win
	if a == nil || len(a.samples) == 0 {
		return 0, 0
	}
	n := float64(len(a.samples))
	mean = a.sum / n
	variance := a.sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // numerical noise
	}
	return mean, math.Sqrt(variance)
}

// Detector tracks the liveness of one node's neighbors. It is not safe
// for concurrent use; the engines guard it with the owning node's lock.
// The records sit in one slice in ascending neighbor id, so every
// listing comes out sorted and a lookup is a binary search.
type Detector struct {
	cfg  Config
	ids  []int32         // monitored neighbors, ascending
	nbrs []neighborState // nbrs[k] is ids[k]'s record

	// Suspicions counts Alive→Suspected transitions (including repeated
	// suspicions of the same neighbor after reintegration).
	Suspicions int
	// Reintegrations counts Suspected→Alive transitions.
	Reintegrations int
}

// New returns a detector monitoring the given neighbors, treating now as
// the moment everyone was last heard from (the start of monitoring).
// The configuration must Validate.
func New(cfg Config, neighbors []int32, now float64) *Detector {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Detector{cfg: cfg, ids: slices.Clone(neighbors)}
	slices.Sort(d.ids)
	d.ids = slices.Compact(d.ids)
	d.nbrs = make([]neighborState, len(d.ids))
	for k := range d.nbrs {
		d.nbrs[k].lastHeard = now
	}
	return d
}

// state returns the neighbor's record, or nil when it is not monitored.
func (d *Detector) state(neighbor int) *neighborState {
	if neighbor != int(int32(neighbor)) {
		return nil
	}
	if k, ok := slices.BinarySearch(d.ids, int32(neighbor)); ok {
		return &d.nbrs[k]
	}
	return nil
}

// Heard records traffic (data, keepalive or probe) from a neighbor at
// time now and reports whether this reintegrates a suspected neighbor —
// the caller then restores the edge via the protocol's OnLinkRecover.
// Traffic from removed or unknown neighbors is ignored.
func (d *Detector) Heard(neighbor int, now float64) (reintegrated bool) {
	ns := d.state(neighbor)
	if ns == nil || ns.removed {
		return false
	}
	if interval := now - ns.lastHeard; interval > 0 && !ns.suspected && d.cfg.Policy == PhiAccrual {
		ns.observe(interval, d.cfg.WindowSize)
	}
	ns.lastHeard = now
	if ns.suspected {
		ns.suspected = false
		d.Reintegrations++
		return true
	}
	return false
}

// Check evaluates the suspicion policy at time now and returns the
// neighbors newly transitioning to suspected, in ascending id order. The
// caller evicts them via the protocol's OnLinkFailure.
func (d *Detector) Check(now float64) []int {
	var out []int
	for k := range d.nbrs {
		ns := &d.nbrs[k]
		if ns.suspected || ns.removed {
			continue
		}
		if d.suspicious(ns, now) {
			ns.suspected = true
			d.Suspicions++
			out = append(out, int(d.ids[k]))
		}
	}
	return out
}

func (d *Detector) suspicious(ns *neighborState, now float64) bool {
	silence := now - ns.lastHeard
	if silence <= 0 {
		return false
	}
	if d.cfg.Policy == FixedTimeout || ns.observed() < d.cfg.MinSamples {
		return silence > d.cfg.Timeout
	}
	return d.phi(ns, silence) >= d.cfg.PhiThreshold
}

// phi is the accrual suspicion level of the given silence duration under
// a normal model of the neighbor's observed inter-arrival times:
// φ = −log₁₀ P(X ≥ silence), X ~ N(mean, std²).
func (d *Detector) phi(ns *neighborState, silence float64) float64 {
	mean, std := ns.meanStd()
	if std < d.cfg.MinStdDev {
		std = d.cfg.MinStdDev
	}
	// Upper tail of the normal CDF via the complementary error function.
	p := 0.5 * math.Erfc((silence-mean)/(std*math.Sqrt2))
	if p <= 0 {
		return math.Inf(1)
	}
	return -math.Log10(p)
}

// Phi returns the current suspicion level of a neighbor (0 for unknown
// or removed neighbors; +Inf once the model assigns zero probability to
// the observed silence). Exposed for experiments and debugging.
func (d *Detector) Phi(neighbor int, now float64) float64 {
	ns := d.state(neighbor)
	if ns == nil || ns.removed {
		return 0
	}
	silence := now - ns.lastHeard
	if silence <= 0 {
		return 0
	}
	return d.phi(ns, silence)
}

// Suspected reports whether the neighbor is currently suspected.
func (d *Detector) Suspected(neighbor int) bool {
	ns := d.state(neighbor)
	return ns != nil && ns.suspected
}

// Suspects returns the currently suspected neighbors in ascending order.
func (d *Detector) Suspects() []int {
	var out []int
	for k, ns := range d.nbrs {
		if ns.suspected && !ns.removed {
			out = append(out, int(d.ids[k]))
		}
	}
	return out
}

// AddNeighbor starts monitoring a new neighbor as of time now — the
// open-membership path, when a node joins the overlay or an edge is
// rewired onto us mid-run. The neighbor starts with a fresh arrival
// model, exactly as if it had been present at construction time. A
// neighbor that is already monitored is left untouched; one that was
// withdrawn via Remove is resurrected fresh (a rewire may legitimately
// recreate a previously failed edge).
func (d *Detector) AddNeighbor(neighbor int, now float64) {
	k, ok := slices.BinarySearch(d.ids, int32(neighbor))
	switch {
	case !ok:
		d.ids = slices.Insert(d.ids, k, int32(neighbor))
		d.nbrs = slices.Insert(d.nbrs, k, neighborState{lastHeard: now})
	case d.nbrs[k].removed:
		d.nbrs[k] = neighborState{lastHeard: now}
	}
}

// Remove withdraws a neighbor permanently: an authoritative failure
// notification (the oracle path) confirmed it is gone, so it is neither
// monitored nor probed any more and can never be reintegrated.
func (d *Detector) Remove(neighbor int) {
	if ns := d.state(neighbor); ns != nil {
		ns.removed = true
		ns.suspected = false
	}
}

// Removed reports whether the neighbor was withdrawn via Remove.
func (d *Detector) Removed(neighbor int) bool {
	ns := d.state(neighbor)
	return ns != nil && ns.removed
}
