package sim

// Flight recorder: wall-clock attribution for the phase-split round.
//
// A flight is attached to the engine only when the recorder has timing
// enabled or a span timeline is set (updateFlight in observe.go);
// e.flight == nil is the default and the ONLY cost on that path is the
// nil check itself — no time.Now() is ever issued when the flight
// recorder is off, so a timing-off recorder leaves the sharded round's
// cost and allocations unchanged (TestShardedRoundAllocFree counts
// them; perfbench's torus4k-linkfail workload times the recorder path).
//
// When on, timing follows the code structure of the executor:
//
//   - each per-shard fan-out task (activate / deliver / errors) is
//     timed by whichever goroutine ran it — pool worker or caller —
//     into the SHARD's histogram bank and the WORKER's timeline track;
//   - the caller additionally records its barrier wait (straggler
//     signal) and each fan-out's wall-clock into shard bank 0;
//   - the serial sections (interception pass, event flush, whole
//     round) go to bank 0 as well.
//
// Concurrency: a shard's fan-out task runs on exactly one goroutine
// per phase, and the WaitGroup barrier orders each phase's writes
// before the next phase's — so per-shard histogram banks keep the
// single-writer-between-barriers discipline of the counter banks, and
// per-worker timeline tracks are single-writer outright.

import (
	"time"

	"pcfreduce/internal/metrics"
)

// flight bundles the two timing sinks. Either may be nil (all
// downstream calls are nil-receiver-safe): rec==nil means
// timeline-only tracing, tl==nil means histograms-only.
type flight struct {
	rec *metrics.Recorder
	tl  *metrics.Timeline
}

// task records one completed per-shard fan-out task run by worker
// (0 = caller, 1..P-1 = pool goroutines).
func (fl *flight) task(worker int, ph metrics.Phase, shard, round int, start time.Time) {
	dur := time.Since(start)
	fl.rec.Timing(shard).Observe(ph, dur.Nanoseconds())
	fl.tl.Span(worker, ph, shard, round, start, dur)
}

// barrier records the caller's wait at a fan-out's WaitGroup barrier
// after finishing its own shard-0 slice.
func (fl *flight) barrier(ph metrics.Phase, round int, start time.Time) {
	bp := barrierPhase(ph)
	dur := time.Since(start)
	fl.rec.Timing(0).Observe(bp, dur.Nanoseconds())
	fl.tl.Span(0, bp, -1, round, start, dur)
}

// wall records a fan-out's dispatch-to-barrier-exit wall-clock.
func (fl *flight) wall(ph metrics.Phase, round int, start time.Time) {
	wp := wallPhase(ph)
	dur := time.Since(start)
	fl.rec.Timing(0).Observe(wp, dur.Nanoseconds())
	fl.tl.Span(0, wp, -1, round, start, dur)
}

// serial records one caller-run serial section (interception pass,
// flush, round).
func (fl *flight) serial(ph metrics.Phase, round int, start time.Time) {
	dur := time.Since(start)
	fl.rec.Timing(0).Observe(ph, dur.Nanoseconds())
	fl.tl.Span(0, ph, -1, round, start, dur)
}

// barrierPhase maps a fan-out phase to its barrier-wait phase.
func barrierPhase(ph metrics.Phase) metrics.Phase {
	switch ph {
	case metrics.PhaseActivate:
		return metrics.PhaseBarrierActivate
	case metrics.PhaseDeliver:
		return metrics.PhaseBarrierDeliver
	default:
		return metrics.PhaseBarrierErrors
	}
}

// wallPhase maps a fan-out phase to its wall-clock phase.
func wallPhase(ph metrics.Phase) metrics.Phase {
	switch ph {
	case metrics.PhaseActivate:
		return metrics.PhaseWallActivate
	case metrics.PhaseDeliver:
		return metrics.PhaseWallDeliver
	default:
		return metrics.PhaseWallErrors
	}
}
