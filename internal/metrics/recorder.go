package metrics

import (
	"math"
	"strconv"
	"sync"

	"pcfreduce/internal/stats"
)

// Float is a float64 that survives JSON encoding when non-finite:
// NaN and ±Inf marshal as null (encoding/json rejects them outright),
// and null unmarshals back to NaN. Sample fields use it because probe
// outputs are legitimately NaN before any data exists.
type Float float64

// MarshalJSON writes the value, or null when non-finite.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON reads a number or null (null → NaN).
func (f *Float) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Sample is one probe of the invariants and counters, taken every K
// rounds (simulator) or monitor ticks (concurrent runtime) — never on
// the per-message path.
type Sample struct {
	// Round is the engine round (simulator) or monitor tick (runtime)
	// the sample was taken at.
	Round int `json:"round"`
	// TimeS is seconds since Run started (concurrent runtime only).
	TimeS Float `json:"t,omitempty"`
	// MaxErr is the oracle maximum relative local error.
	MaxErr Float `json:"max_err"`
	// P50, P90, P99 are the exact per-node error quantiles over the
	// non-NaN errors (stats.QuantileSorted's interpolation).
	P50 Float `json:"p50_err"`
	P90 Float `json:"p90_err"`
	P99 Float `json:"p99_err"`
	// MassResidual is the global mass-conservation residual: the
	// mass-weighted global estimate Σx/Σw over live nodes against the
	// oracle target, relative, worst component. The ratio form is
	// invariant to mass in flight (sends remove proportional x and w),
	// so it is observable per round: a few ulps for PCF, drifting for
	// protocols whose flows grow into cancellation (the paper's PF
	// failure mode).
	MassResidual Float `json:"mass_residual"`
	// InFlight is the fraction of global weight currently in transit:
	// |W0 − Σw|/W0 over live nodes. A load/health signal, not an
	// invariant — in the phase-split model roughly half the weight is
	// legitimately in flight at any barrier.
	InFlight Float `json:"inflight_weight"`
	// AntiSym counts directed edges whose mirror flows are not bitwise
	// anti-symmetric at the probe instant. Edges with an exchange in
	// flight legitimately count, so per-round values track churn; at
	// quiescence (after Drain, legacy engine) it must be 0. -1 when the
	// protocol exposes no flow state (push-sum) or the engine cannot
	// probe it consistently (concurrent runtime).
	AntiSym int `json:"antisym_violations"`
	// Counters is the merged counter snapshot at the probe instant.
	Counters Snapshot `json:"counters"`
}

// epochThresholds are the convergence decades that emit EvEpochCrossed
// events the first time the sampled max error reaches them.
var epochThresholds = [...]float64{1e-3, 1e-6, 1e-9, 1e-12}

// Config sizes a Recorder.
type Config struct {
	// Shards is how many single-writer counter banks to allocate (≥ 1).
	// Engines grow this on attach to match their shard count, so 0 is
	// fine.
	Shards int
	// Interval is the sampling cadence in rounds (simulator) or monitor
	// ticks (runtime). Default 1.
	Interval int
	// EventCapacity is the trace ring size; oldest events are
	// overwritten beyond it. Default 512.
	EventCapacity int
	// Concurrent also allocates the shared atomic bank — required when
	// the recorder is attached to the concurrent runtime. The runtime
	// ensures this itself on attach.
	Concurrent bool
	// Timing enables the flight recorder: per-shard TimingBank
	// histograms recording phase durations. Off by default — engines
	// must not issue a single time.Now() when it is off.
	Timing bool
}

// Recorder accumulates counters, invariant samples and trace events for
// one engine run. A nil *Recorder is a valid disabled recorder: every
// method is a no-op (or zero answer), so engines are written without
// enabled/disabled branches.
//
// Concurrency contract: Bank(s) banks are single-writer (the owning
// shard worker) and read only at round barriers; Atomic() is safe from
// anywhere; RecordEvent/RecordSample/Events/History take internal
// locks.
type Recorder struct {
	interval int
	banks    []Bank
	atomic   *AtomicBank
	ring     ring
	// timing is nil unless Config.Timing (or EnableTiming) turned the
	// flight recorder on; per-shard banks follow the same single-writer
	// + barrier-merge discipline as banks.
	timing []TimingBank

	mu        sync.Mutex
	history   []Sample
	lastRound int
	epoch     int

	qbuf []float64 // ErrQuantiles scratch: the non-NaN errors, reordered in place
}

// New builds a Recorder; zero-valued Config fields take defaults.
func New(cfg Config) *Recorder {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Interval < 1 {
		cfg.Interval = 1
	}
	if cfg.EventCapacity < 1 {
		cfg.EventCapacity = 512
	}
	r := &Recorder{
		interval:  cfg.Interval,
		banks:     make([]Bank, cfg.Shards),
		lastRound: -1,
	}
	r.ring.buf = make([]Event, cfg.EventCapacity)
	if cfg.Concurrent {
		r.atomic = &AtomicBank{}
	}
	if cfg.Timing {
		r.timing = make([]TimingBank, cfg.Shards)
	}
	return r
}

// Interval returns the sampling cadence (1 on a nil recorder).
func (r *Recorder) Interval() int {
	if r == nil {
		return 1
	}
	return r.interval
}

// Due reports whether a sample is due at the given round: false on a
// nil recorder, so engines gate their probes with it directly.
func (r *Recorder) Due(round int) bool {
	return r != nil && round%r.interval == 0
}

// Bank returns shard s's single-writer counter bank, or nil when the
// recorder is nil — making every downstream Inc/Add a no-op.
func (r *Recorder) Bank(s int) *Bank {
	if r == nil || s >= len(r.banks) {
		return nil
	}
	return &r.banks[s]
}

// Atomic returns the shared atomic bank (nil when the recorder is nil
// or was not built for concurrent use).
func (r *Recorder) Atomic() *AtomicBank {
	if r == nil {
		return nil
	}
	return r.atomic
}

// EnsureBanks grows the bank slice to at least n single-writer banks.
// Engines call it once on attach (never during a round — banks may be
// mid-increment).
func (r *Recorder) EnsureBanks(n int) {
	if r == nil || n <= len(r.banks) {
		return
	}
	grown := make([]Bank, n)
	copy(grown, r.banks)
	r.banks = grown
}

// EnsureConcurrent allocates the shared atomic bank if absent. The
// concurrent runtime calls it on attach, before any goroutine starts.
func (r *Recorder) EnsureConcurrent() {
	if r != nil && r.atomic == nil {
		r.atomic = &AtomicBank{}
	}
}

// IncShared increments a counter from a context that may be shared
// between goroutines: the atomic bank when present, bank 0 otherwise
// (fault interceptors run single-threaded in the simulator's merge
// phase but under a lock in the runtime).
func (r *Recorder) IncShared(c Counter) {
	if r == nil {
		return
	}
	if r.atomic != nil {
		r.atomic.Inc(c)
		return
	}
	r.banks[0].Inc(c)
}

// Counters merges every bank into one Snapshot. Call only at a round
// barrier (simulator) — plain banks are read unsynchronized by design.
func (r *Recorder) Counters() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for b := range r.banks {
		for c := 0; c < numCounters; c++ {
			s[c] += r.banks[b].c[c]
		}
	}
	if r.atomic != nil {
		for c := 0; c < numCounters; c++ {
			s[c] += r.atomic.c[c].v.Load()
		}
	}
	return s
}

// ErrQuantiles returns the exact (p50, p90, p99) of the non-NaN entries
// of errs (dead nodes report none) under stats.QuantileSorted's
// interpolation, all NaN when there are none. It selects over a
// recorder-owned copy, leaving errs as it is and allocating nothing
// once the copy has grown to the node count. The quantiles of a
// multiset do not depend on the order of errs, so they are the same for
// every shard layout. Single-threaded: call from the probing goroutine
// only.
func (r *Recorder) ErrQuantiles(errs []float64) (p50, p90, p99 float64) {
	if r == nil {
		return math.NaN(), math.NaN(), math.NaN()
	}
	buf := r.qbuf[:0]
	for _, e := range errs {
		if !math.IsNaN(e) {
			buf = append(buf, e)
		}
	}
	r.qbuf = buf
	var q [3]float64
	stats.SelectQuantiles(buf, errQuantiles[:], q[:])
	return q[0], q[1], q[2]
}

// errQuantiles are the quantiles a Sample reports, ascending.
var errQuantiles = [3]float64{0.5, 0.9, 0.99}

// RecordSample appends one probe to the history and emits
// EvEpochCrossed events for every convergence threshold the sampled max
// error newly satisfies. No-op when nil.
func (r *Recorder) RecordSample(s Sample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	me := float64(s.MaxErr)
	for r.epoch < len(epochThresholds) && !math.IsNaN(me) && me <= epochThresholds[r.epoch] {
		r.ring.put(Event{
			Kind:  EvEpochCrossed,
			Round: s.Round,
			TimeS: float64(s.TimeS),
			A:     -1,
			B:     -1,
			Value: epochThresholds[r.epoch],
		})
		r.epoch++
	}
	r.history = append(r.history, s)
	r.lastRound = s.Round
	r.mu.Unlock()
}

// History returns a copy of all recorded samples in order.
func (r *Recorder) History() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, len(r.history))
	copy(out, r.history)
	return out
}

// Last returns the most recent sample, if any.
func (r *Recorder) Last() (Sample, bool) {
	if r == nil {
		return Sample{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.history) == 0 {
		return Sample{}, false
	}
	return r.history[len(r.history)-1], true
}

// LastRound returns the round of the most recent sample (-1 when none)
// — engines use it to avoid double-sampling the final round.
func (r *Recorder) LastRound() int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastRound
}

// TimingEnabled reports whether the flight recorder is on. Engines use
// it to decide once, at attach time, whether to build their timing
// state — never per round.
func (r *Recorder) TimingEnabled() bool {
	return r != nil && r.timing != nil
}

// EnableTiming turns the flight recorder on (at least one bank). Call
// before attaching the recorder to an engine, never mid-round.
func (r *Recorder) EnableTiming() {
	if r != nil && r.timing == nil {
		r.timing = make([]TimingBank, max(1, len(r.banks)))
	}
}

// EnsureTiming grows the timing bank slice to at least n banks, when
// timing is enabled at all. Engines call it on attach, like
// EnsureBanks.
func (r *Recorder) EnsureTiming(n int) {
	if r == nil || r.timing == nil || n <= len(r.timing) {
		return
	}
	grown := make([]TimingBank, n)
	copy(grown, r.timing)
	r.timing = grown
}

// Timing returns shard s's single-writer timing bank, or nil when the
// recorder is nil or timing is off — making every downstream Observe a
// no-op.
func (r *Recorder) Timing(s int) *TimingBank {
	if r == nil || s >= len(r.timing) {
		return nil
	}
	return &r.timing[s]
}

// MergedTiming folds every shard's timing bank into one. Call only at
// a round barrier, like Counters.
func (r *Recorder) MergedTiming() TimingBank {
	var out TimingBank
	if r == nil {
		return out
	}
	for i := range r.timing {
		out.Merge(&r.timing[i])
	}
	return out
}

// PhaseStats summarizes the merged timing banks: one PhaseStat per
// phase that recorded at least one observation, in Phase order. Nil
// when timing is off or nothing was recorded.
func (r *Recorder) PhaseStats() []PhaseStat {
	if r == nil || r.timing == nil {
		return nil
	}
	merged := r.MergedTiming()
	var out []PhaseStat
	for p := 0; p < NumPhases; p++ {
		h := merged.Hist(Phase(p))
		if h.Count == 0 {
			continue
		}
		out = append(out, statOf(Phase(p).String(), h))
	}
	return out
}
