package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pcfreduce/internal/stats"
)

// TestNilRecorderNoOps: every entry point must be a safe no-op on a nil
// recorder — this is the whole disabled-path contract.
func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Bank(0).Inc(MsgsSent)
	r.Bank(3).Add(MsgsLost, 7)
	r.Atomic().Inc(MsgsSent)
	r.IncShared(MsgsCorrupted)
	r.RecordEvent(Event{Kind: EvNodeCrash, A: 1, B: -1})
	r.RecordEvents([]Event{{Kind: EvLinkFail}})
	r.RecordSample(Sample{Round: 1})
	r.EnsureBanks(8)
	r.EnsureConcurrent()
	if r.Due(0) {
		t.Fatal("nil recorder reported a sample due")
	}
	if got := r.Counters(); got != (Snapshot{}) {
		t.Fatalf("nil recorder counters = %v", got)
	}
	if r.Events() != nil || r.History() != nil || r.LastRound() != -1 {
		t.Fatal("nil recorder returned data")
	}
	if _, ok := r.Last(); ok {
		t.Fatal("nil recorder has a last sample")
	}
	p50, _, _ := r.ErrQuantiles([]float64{1, 2, 3})
	if !math.IsNaN(p50) {
		t.Fatalf("nil recorder quantile = %v", p50)
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestErrQuantilesExact: the recorder's quantiles are the exact
// quantiles of the non-NaN errors (dead nodes report NaN) — stats.Quantile
// of what remains, bitwise — for tiny and all-NaN inputs, ties and random
// inputs; they leave errs untouched and allocate nothing once the
// recorder's copy has grown.
func TestErrQuantilesExact(t *testing.T) {
	nan := math.NaN()
	rng := rand.New(rand.NewSource(5))
	random := make([]float64, 1000)
	for i := range random {
		random[i] = rng.ExpFloat64()
		if i%97 == 0 {
			random[i] = nan
		}
	}
	r := New(Config{})
	for _, errs := range [][]float64{
		nil,
		{},
		{0.25},
		{0.5, 0.125},
		{nan},
		{nan, nan, nan},
		{nan, 3, nan},
		{2, 2, 2, 2},
		{1, 3, 3, 3, 0, 3, 1},
		{0, 0, 1e-3, 0, 0, nan, 0},
		random,
	} {
		var finite []float64
		for _, e := range errs {
			if !math.IsNaN(e) {
				finite = append(finite, e)
			}
		}
		before := append([]float64(nil), errs...)
		p50, p90, p99 := r.ErrQuantiles(errs)
		for _, c := range []struct {
			q   float64
			got float64
		}{{0.5, p50}, {0.9, p90}, {0.99, p99}} {
			want := stats.Quantile(finite, c.q)
			if math.Float64bits(c.got) != math.Float64bits(want) && !(math.IsNaN(c.got) && math.IsNaN(want)) {
				t.Errorf("%d errors: q=%g got %v, want %v", len(errs), c.q, c.got, want)
			}
		}
		for i := range errs {
			if math.Float64bits(errs[i]) != math.Float64bits(before[i]) {
				t.Fatalf("%d errors: ErrQuantiles modified its input", len(errs))
			}
		}
	}
	if a := testing.AllocsPerRun(20, func() { r.ErrQuantiles(random) }); a != 0 {
		t.Errorf("ErrQuantiles: %v allocs/op, want 0", a)
	}
}

// TestBankMergeOrderIndependent: a fixed multiset of increments must
// produce the same merged snapshot no matter how it is scattered across
// banks and orderings — the property that makes the per-shard
// single-writer banks sound for any shard count and schedule.
func TestBankMergeOrderIndependent(t *testing.T) {
	const ops = 5000
	rng := rand.New(rand.NewSource(42))
	kinds := make([]Counter, ops)
	amounts := make([]uint64, ops)
	for i := range kinds {
		kinds[i] = Counter(rng.Intn(numCounters))
		amounts[i] = uint64(rng.Intn(3) + 1)
	}

	apply := func(shards int, perm []int) Snapshot {
		r := New(Config{Shards: shards})
		for _, idx := range perm {
			r.Bank(idx%shards).Add(kinds[idx], amounts[idx])
		}
		return r.Counters()
	}

	ident := make([]int, ops)
	for i := range ident {
		ident[i] = i
	}
	want := apply(1, ident)
	for _, shards := range []int{1, 2, 8, 16} {
		for trial := 0; trial < 4; trial++ {
			perm := rng.Perm(ops)
			if got := apply(shards, perm); got != want {
				t.Fatalf("shards=%d trial=%d: merged snapshot differs:\n got %v\nwant %v",
					shards, trial, got, want)
			}
		}
	}

	// The atomic bank must merge into the same total.
	r := New(Config{Shards: 4, Concurrent: true})
	for i, k := range kinds {
		if i%2 == 0 {
			r.Atomic().Add(k, amounts[i])
		} else {
			r.Bank(i%4).Add(k, amounts[i])
		}
	}
	if got := r.Counters(); got != want {
		t.Fatalf("atomic+plain merge differs: got %v want %v", got, want)
	}
}

// TestSnapshotJSONRoundTrip: stable field order on encode, tolerant
// decode.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	var s Snapshot
	for i := range s {
		s[i] = uint64(i * 11)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), `{"msgs_sent":0,"msgs_delivered":11,`) {
		t.Fatalf("unexpected snapshot encoding: %s", b)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip changed snapshot: %v vs %v", back, s)
	}
}

// TestEventRingWrap: the ring keeps the newest events and counts the
// overwritten ones.
func TestEventRingWrap(t *testing.T) {
	r := New(Config{EventCapacity: 4})
	for i := 0; i < 10; i++ {
		r.RecordEvent(Event{Kind: EvLinkFail, Round: i, A: i, B: -1})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Round != 6+i {
			t.Fatalf("ring[%d].Round = %d, want %d (oldest-first window)", i, ev.Round, 6+i)
		}
	}
	if r.EventsDropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.EventsDropped())
	}
}

// TestEventJSONL: compact form, omitted inapplicable fields, lossless
// round trip.
func TestEventJSONL(t *testing.T) {
	r := New(Config{})
	r.RecordEvent(Event{Kind: EvLinkEvicted, Round: 12, A: 3, B: 7})
	r.RecordEvent(Event{Kind: EvEpochCrossed, Round: 40, A: -1, B: -1, Value: 1e-6})
	r.RecordEvent(Event{Kind: EvNodeCrashSilent, Round: -1, TimeS: 1.5, A: 2, B: -1})
	var buf bytes.Buffer
	if err := r.WriteEventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{
		`{"kind":"link-evicted","round":12,"a":3,"b":7}`,
		`{"kind":"epoch-crossed","round":40,"value":1e-06}`,
		`{"kind":"node-crash-silent","t":1.5,"a":2}`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
	for i, line := range lines {
		var back Event
		if err := json.Unmarshal([]byte(line), &back); err != nil {
			t.Fatalf("line %d unmarshal: %v", i, err)
		}
		if back != r.Events()[i] {
			t.Errorf("line %d round trip: %+v vs %+v", i, back, r.Events()[i])
		}
	}
}

// TestEpochEvents: RecordSample emits one EvEpochCrossed per threshold,
// exactly once, even when a single sample crosses several decades.
func TestEpochEvents(t *testing.T) {
	r := New(Config{})
	r.RecordSample(Sample{Round: 1, MaxErr: 0.5})
	r.RecordSample(Sample{Round: 2, MaxErr: 1e-4})  // crosses 1e-3
	r.RecordSample(Sample{Round: 3, MaxErr: 1e-10}) // crosses 1e-6 and 1e-9
	r.RecordSample(Sample{Round: 4, MaxErr: 1e-8})  // transient bounce: no event
	r.RecordSample(Sample{Round: 5, MaxErr: 1e-13}) // crosses 1e-12
	var got []float64
	for _, ev := range r.Events() {
		if ev.Kind != EvEpochCrossed {
			t.Fatalf("unexpected event %v", ev)
		}
		got = append(got, ev.Value)
	}
	want := []float64{1e-3, 1e-6, 1e-9, 1e-12}
	if len(got) != len(want) {
		t.Fatalf("epoch events %v, want thresholds %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epoch events %v, want thresholds %v", got, want)
		}
	}
	if r.Events()[3].Round != 5 {
		t.Fatalf("1e-12 crossing recorded at round %d, want 5", r.Events()[3].Round)
	}
}

// TestFloatJSON: non-finite sample fields must encode as null and come
// back as NaN.
func TestFloatJSON(t *testing.T) {
	s := Sample{Round: 3, MaxErr: Float(math.NaN()), P50: 0.5,
		P90: Float(math.Inf(1)), AntiSym: -1}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal with NaN/Inf: %v", err)
	}
	if !strings.Contains(string(b), `"max_err":null`) || !strings.Contains(string(b), `"p90_err":null`) {
		t.Fatalf("non-finite floats not nulled: %s", b)
	}
	var back Sample
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(back.MaxErr)) || float64(back.P50) != 0.5 {
		t.Fatalf("round trip: %+v", back)
	}
}

// TestPrometheusExposition: counters and last-sample gauges appear in
// the text format.
func TestPrometheusExposition(t *testing.T) {
	r := New(Config{Shards: 2})
	r.Bank(0).Add(MsgsSent, 5)
	r.Bank(1).Add(MsgsSent, 7)
	r.RecordSample(Sample{Round: 9, MaxErr: 1e-5, MassResidual: 2e-16})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"pcfreduce_msgs_sent_total 12",
		"# TYPE pcfreduce_msgs_sent_total counter",
		"pcfreduce_round 9",
		"pcfreduce_max_error 1e-05",
		"pcfreduce_mass_residual 2e-16",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestTableRendersHistory: the terminal sink includes one row per
// sample.
func TestTableRendersHistory(t *testing.T) {
	r := New(Config{})
	r.RecordSample(Sample{Round: 10, MaxErr: 0.25})
	r.RecordSample(Sample{Round: 20, MaxErr: 0.01})
	out := r.Table().String()
	if !strings.Contains(out, "10") || !strings.Contains(out, "20") || !strings.Contains(out, "mass_resid") {
		t.Fatalf("table missing rows or headers:\n%s", out)
	}
	var csv bytes.Buffer
	if err := r.Table().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "round,max_err") {
		t.Fatalf("csv missing header: %s", csv.String())
	}
}
