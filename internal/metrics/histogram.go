package metrics

import (
	"math"
	"math/bits"
)

// Phase names one timed section of the engine's round loop. The sharded
// executor records phases 1:1 with its code structure: the parallel
// fan-outs (activate, deliver, errors — Observe's probe counts as
// errors) are timed per shard by whichever worker ran the shard, the
// serial sections (merge, flush) by the caller, and each fan-out's
// barrier wait and wall-clock by the caller into shard slot 0.
// PhaseSample is the runtime monitor's probe cost, recorded outside the
// simulator entirely.
type Phase int

const (
	// PhaseActivate is one shard's phase-1 work: drain inbox, run node
	// activations, stage outgoing messages into per-destination buckets.
	PhaseActivate Phase = iota
	// PhaseDeliver is one shard's phase-2 work: merge the per-source
	// buckets destined to it (in ascending source order) into its inbox.
	PhaseDeliver
	// PhaseErrors is one shard's slice of an oracle error scan or of an
	// invariant probe (Observe).
	PhaseErrors
	// PhaseMerge is the serial interception pass that follows delivery
	// on rounds with an interceptor installed (recorded into shard slot
	// 0).
	PhaseMerge
	// PhaseFlush is the serial per-round event-staging flush.
	PhaseFlush
	// PhaseBarrierActivate / PhaseBarrierDeliver / PhaseBarrierErrors
	// are the caller's wait at the respective fan-out barrier after
	// finishing its own shard-0 slice: the straggler signal. Recorded
	// into shard slot 0.
	PhaseBarrierActivate
	PhaseBarrierDeliver
	PhaseBarrierErrors
	// PhaseWallActivate / PhaseWallDeliver / PhaseWallErrors are each
	// fan-out's wall-clock (dispatch to barrier-exit), recorded into
	// shard slot 0. Utilization of a fan-out is the ratio of summed
	// per-shard task time to workers × wall time.
	PhaseWallActivate
	PhaseWallDeliver
	PhaseWallErrors
	// PhaseRound is the whole sharded round's wall-clock.
	PhaseRound
	// PhaseSample is the runtime monitor's sampling probe.
	PhaseSample

	// NumPhases sizes TimingBank; it is not a phase.
	NumPhases int = iota
)

var phaseNames = [NumPhases]string{
	PhaseActivate:        "activate",
	PhaseDeliver:         "deliver",
	PhaseErrors:          "errors",
	PhaseMerge:           "merge",
	PhaseFlush:           "flush",
	PhaseBarrierActivate: "barrier-activate",
	PhaseBarrierDeliver:  "barrier-deliver",
	PhaseBarrierErrors:   "barrier-errors",
	PhaseWallActivate:    "wall-activate",
	PhaseWallDeliver:     "wall-deliver",
	PhaseWallErrors:      "wall-errors",
	PhaseRound:           "round",
	PhaseSample:          "sample",
}

// String returns the stable lower-case phase name used in JSON,
// Prometheus labels and the timeline export.
func (p Phase) String() string {
	if p >= 0 && int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// durBuckets is the fixed bucket count of DurHist: bucket b holds
// durations in [2^(b-1), 2^b) ns (bucket 0 holds 0 ns), so 40 buckets
// cover everything up to ~9 minutes — far beyond any single phase.
const durBuckets = 40

// DurHist is an allocation-free log2 duration histogram. Like Bank it
// is a plain value embedded in pre-allocated per-shard state, written
// by exactly one goroutine between barriers and merged single-threaded
// at the barrier; all methods are nil-receiver-safe no-ops so engines
// can call them unconditionally.
type DurHist struct {
	Count   uint64
	SumNs   uint64
	MinNs   uint64
	MaxNs   uint64
	Buckets [durBuckets]uint64
}

// bucketOf maps a duration in ns to its log2 bucket index.
func bucketOf(ns uint64) int {
	b := bits.Len64(ns) // 0 ns → 0, [2^(b-1), 2^b) → b
	if b >= durBuckets {
		b = durBuckets - 1
	}
	return b
}

// Record adds one duration observation (negative durations clamp to 0).
func (h *DurHist) Record(ns int64) {
	if h == nil {
		return
	}
	u := uint64(max(ns, 0))
	if h.Count == 0 || u < h.MinNs {
		h.MinNs = u
	}
	if u > h.MaxNs {
		h.MaxNs = u
	}
	h.Count++
	h.SumNs += u
	h.Buckets[bucketOf(u)]++
}

// Merge folds other into h. Merging is commutative and associative, so
// per-shard histograms folded in any order equal one histogram that
// recorded every observation directly.
func (h *DurHist) Merge(other *DurHist) {
	if h == nil || other == nil || other.Count == 0 {
		return
	}
	if h.Count == 0 || other.MinNs < h.MinNs {
		h.MinNs = other.MinNs
	}
	if other.MaxNs > h.MaxNs {
		h.MaxNs = other.MaxNs
	}
	h.Count += other.Count
	h.SumNs += other.SumNs
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// Mean returns the mean duration in ns (0 when empty).
func (h *DurHist) Mean() float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	return float64(h.SumNs) / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the containing log2 bucket, clamped to the
// exact observed [MinNs, MaxNs] range so single-observation and
// tail quantiles never exceed reality.
func (h *DurHist) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.MinNs)
	}
	if q >= 1 {
		return float64(h.MaxNs)
	}
	rank := q * float64(h.Count)
	var cum float64
	for b, n := range h.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo, hi := bucketBounds(b)
			frac := (rank - cum) / float64(n)
			v := lo + frac*(hi-lo)
			return math.Min(math.Max(v, float64(h.MinNs)), float64(h.MaxNs))
		}
		cum = next
	}
	return float64(h.MaxNs)
}

// bucketBounds returns the [lo, hi) ns range of bucket b.
func bucketBounds(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (b - 1)), float64(uint64(1) << b)
}

// TimingBank is one shard's flight-recorder slice: a DurHist per phase.
// The same single-writer-between-barriers discipline as Bank applies,
// and all methods are nil-safe.
type TimingBank struct {
	h [NumPhases]DurHist
}

// Observe records one duration for the given phase.
func (t *TimingBank) Observe(p Phase, ns int64) {
	if t == nil || p < 0 || int(p) >= NumPhases {
		return
	}
	t.h[p].Record(ns)
}

// Hist returns the bank's histogram for a phase (nil when out of
// range or on a nil bank).
func (t *TimingBank) Hist(p Phase) *DurHist {
	if t == nil || p < 0 || int(p) >= NumPhases {
		return nil
	}
	return &t.h[p]
}

// Merge folds other's histograms into t, phase by phase.
func (t *TimingBank) Merge(other *TimingBank) {
	if t == nil || other == nil {
		return
	}
	for p := range t.h {
		t.h[p].Merge(&other.h[p])
	}
}

// PhaseStat is the exported summary of one phase's merged histogram,
// serialized into sweep JSON and expvar. Durations are nanoseconds.
type PhaseStat struct {
	Phase string  `json:"phase"`
	Count uint64  `json:"count"`
	SumNs uint64  `json:"sum_ns"`
	MinNs uint64  `json:"min_ns"`
	MaxNs uint64  `json:"max_ns"`
	P50Ns float64 `json:"p50_ns"`
	P90Ns float64 `json:"p90_ns"`
	P99Ns float64 `json:"p99_ns"`
}

// statOf summarizes a histogram under a phase name.
func statOf(name string, h *DurHist) PhaseStat {
	return PhaseStat{
		Phase: name,
		Count: h.Count,
		SumNs: h.SumNs,
		MinNs: h.MinNs,
		MaxNs: h.MaxNs,
		P50Ns: h.Quantile(0.50),
		P90Ns: h.Quantile(0.90),
		P99Ns: h.Quantile(0.99),
	}
}
