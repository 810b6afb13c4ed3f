package metrics

import (
	"fmt"
	"io"
	"time"
)

// TimelineSpan is one timed slice of work on a worker track. Worker 0
// is the caller goroutine (which runs shard 0 of every fan-out plus all
// serial sections); workers 1..P-1 are the pool goroutines. Shard is -1
// for serial sections that are not per-shard (round wall, flush).
type TimelineSpan struct {
	Worker  int
	Phase   Phase
	Shard   int
	Round   int
	StartNs int64 // ns since the timeline epoch
	DurNs   int64
}

// Timeline collects per-worker span tracks for the flight recorder's
// Perfetto export. Each track is written by exactly one goroutine
// (worker i appends only to track i) between round barriers, and the
// pool's barrier orders every append before the caller's
// reads — the same happens-before discipline as the counter banks, so
// no locking is needed. Unlike DurHist, spans allocate (append), so a
// Timeline is only ever attached for explicitly requested trace runs,
// never on the default path.
//
// All methods are nil-receiver-safe no-ops.
type Timeline struct {
	epoch  time.Time
	tracks [][]TimelineSpan
	// rounds maps round number → wall-clock ns since epoch at round
	// start; written only by the caller goroutine (MarkRound at the top
	// of each round), used to place the event ring's round-stamped
	// instant events on the time axis.
	rounds []int64
	base   int // round number of rounds[0]
}

// NewTimeline creates a timeline with one track per worker (the caller
// plus workers-1 pool goroutines; workers < 1 is clamped to 1).
func NewTimeline(workers int) *Timeline {
	if workers < 1 {
		workers = 1
	}
	return &Timeline{epoch: time.Now(), tracks: make([][]TimelineSpan, workers)}
}

// Epoch returns the wall-clock origin of the timeline's span offsets.
func (t *Timeline) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// EnsureWorkers grows the track table to at least n tracks. Must only
// be called between rounds (engine construction / reconfiguration),
// like Recorder.EnsureBanks.
func (t *Timeline) EnsureWorkers(n int) {
	if t == nil || n <= len(t.tracks) {
		return
	}
	grown := make([][]TimelineSpan, n)
	copy(grown, t.tracks)
	t.tracks = grown
}

// Workers returns the number of tracks.
func (t *Timeline) Workers() int {
	if t == nil {
		return 0
	}
	return len(t.tracks)
}

// Span records one slice on the given worker's track. start is the
// time.Now() captured at slice begin; dur its duration.
func (t *Timeline) Span(worker int, p Phase, shard, round int, start time.Time, dur time.Duration) {
	if t == nil || worker < 0 || worker >= len(t.tracks) {
		return
	}
	t.tracks[worker] = append(t.tracks[worker], TimelineSpan{
		Worker:  worker,
		Phase:   p,
		Shard:   shard,
		Round:   round,
		StartNs: start.Sub(t.epoch).Nanoseconds(),
		DurNs:   dur.Nanoseconds(),
	})
}

// MarkRound records the wall-clock start of a round (caller goroutine
// only). Rounds must be marked in ascending order; gaps are fine.
func (t *Timeline) MarkRound(round int, at time.Time) {
	if t == nil {
		return
	}
	if len(t.rounds) == 0 {
		t.base = round
	}
	// Pad over any skipped rounds with the previous mark first, so the
	// slice stays index-addressable and gap rounds resolve to the
	// nearest earlier mark, then place this round's mark at its index.
	for len(t.rounds) < round-t.base {
		t.rounds = append(t.rounds, t.rounds[len(t.rounds)-1])
	}
	t.rounds = append(t.rounds, at.Sub(t.epoch).Nanoseconds())
}

// RoundTime returns the recorded start of a round in ns since epoch.
// Unmarked rounds resolve to the nearest earlier mark (or the first
// mark when the round predates recording); ok is false only when no
// round was ever marked.
func (t *Timeline) RoundTime(round int) (ns int64, ok bool) {
	if t == nil || len(t.rounds) == 0 {
		return 0, false
	}
	i := round - t.base
	if i < 0 {
		i = 0
	}
	if i >= len(t.rounds) {
		i = len(t.rounds) - 1
	}
	return t.rounds[i], true
}

// Spans returns all recorded tracks; the caller must not mutate them.
// Only valid between rounds (after a barrier).
func (t *Timeline) Spans() [][]TimelineSpan {
	if t == nil {
		return nil
	}
	return t.tracks
}

// TimelineWriter renders a Timeline (and, when a Recorder is attached,
// its event ring as instant events) in the Chrome trace-event JSON
// format that Perfetto (https://ui.perfetto.dev) and chrome://tracing
// load directly: one thread per worker track, one "X" (complete) slice
// per span named by its phase with shard/round args, and one "i"
// (instant) event per ring event placed at its round's recorded start
// time.
type TimelineWriter struct {
	Timeline *Timeline
	// Recorder is optional; when set, its Events() become instant
	// events on a dedicated "events" thread.
	Recorder *Recorder
}

// eventsTid is the synthetic thread id of the instant-event track,
// placed after the worker tracks.
func (w TimelineWriter) eventsTid() int {
	return w.Timeline.Workers()
}

// WriteTo emits the trace JSON. Timestamps are microseconds (float)
// since the timeline epoch, per the trace-event spec.
func (w TimelineWriter) WriteTo(out io.Writer) (int64, error) {
	cw := &countWriter{w: out}
	if w.Timeline == nil {
		_, err := io.WriteString(cw, "{\"traceEvents\":[]}\n")
		return cw.n, err
	}
	if _, err := io.WriteString(cw, "{\"traceEvents\":[\n"); err != nil {
		return cw.n, err
	}
	first := true
	emit := func(s string) error {
		if !first {
			if _, err := io.WriteString(cw, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := io.WriteString(cw, s)
		return err
	}
	// Thread-name metadata rows so Perfetto labels the tracks.
	for i := 0; i < w.Timeline.Workers(); i++ {
		name := fmt.Sprintf("worker %d", i)
		if i == 0 {
			name = "caller"
		}
		if err := emit(fmt.Sprintf(
			`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, i, name)); err != nil {
			return cw.n, err
		}
	}
	if w.Recorder != nil {
		if err := emit(fmt.Sprintf(
			`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"events"}}`, w.eventsTid())); err != nil {
			return cw.n, err
		}
	}
	for _, track := range w.Timeline.Spans() {
		for _, s := range track {
			if err := emit(fmt.Sprintf(
				`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"shard":%d,"round":%d}}`,
				s.Phase.String(), s.Worker,
				float64(s.StartNs)/1e3, float64(s.DurNs)/1e3,
				s.Shard, s.Round)); err != nil {
				return cw.n, err
			}
		}
	}
	if w.Recorder != nil {
		tid := w.eventsTid()
		for _, ev := range w.Recorder.Events() {
			ns, ok := w.Timeline.RoundTime(ev.Round)
			if !ok {
				ns = 0
			}
			if err := emit(fmt.Sprintf(
				`{"name":%q,"ph":"i","s":"g","pid":1,"tid":%d,"ts":%.3f,"args":{"round":%d,"a":%d,"b":%d}}`,
				ev.Kind.String(), tid, float64(ns)/1e3, ev.Round, ev.A, ev.B)); err != nil {
				return cw.n, err
			}
		}
	}
	_, err := io.WriteString(cw, "\n]}\n")
	return cw.n, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
