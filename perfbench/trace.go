package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Times are nanoseconds since the tracer's origin; parent indexes the
// enclosing span in tracer.spans (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the whole run; they are written out
// only when the run ends. A nil *tracer records nothing, so the untraced
// legs call the same code paths at the cost of a nil check.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int32
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// add records an already finished span as a child of the innermost open
// span: the dmGS reductions run inside dmgs.Factorize, so their bounds
// are only known from the OnReduction hook after the fact.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), Parent: parent})
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover, over the trees whose root span is named
// root.
func (t *tracer) selfTimes(root string) map[string]time.Duration {
	self := make([]time.Duration, len(t.spans))
	top := make([]int32, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		top[i] = int32(i)
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
			top[i] = top[s.Parent] // parents precede their children
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if t.spans[top[i]].Name == root {
			out[s.Name] += self[i]
		}
	}
	return out
}

// write stores the spans as JSON in dir, creating it if needed.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q = 0.5 is the median); 0 for no samples.
func quantile[T ~int64 | ~float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + T((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

func median[T ~int64 | ~float64](xs []T) T { return quantile(xs, 0.5) }

func total(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
