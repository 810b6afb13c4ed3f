package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
	"weak"

	"pcfreduce/internal/core"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/topology"
)

// poolEngine builds a PCF engine on torus3d(6³) over p contiguous shards.
func poolEngine(p int) *Engine {
	g := topology.Torus3D(6, 6, 6)
	protos := make([]gossip.Protocol, g.N())
	for i := range protos {
		protos[i] = core.NewEfficient()
	}
	inputs := make([]float64, g.N())
	for i := range inputs {
		inputs[i] = float64(i%11) + 0.25
	}
	return NewScalar(g, protos, inputs, gossip.Average, 9, WithShards(p))
}

// poolRounds drives every fan-out (activate, deliver, errors, observe)
// for the given number of rounds and returns the bits of every error
// scan, every sample's maximum error and the final estimates.
func poolRounds(e *Engine, rounds int) []uint64 {
	e.SetMetrics(metrics.New(metrics.Config{Shards: e.shards, Interval: 1 << 30}))
	var bits []uint64
	for r := 0; r < rounds; r++ {
		e.Step()
		for _, x := range e.Errors() {
			bits = append(bits, math.Float64bits(x))
		}
		if r%4 == 3 {
			e.Observe()
			s, _ := e.rec.Last()
			bits = append(bits, math.Float64bits(float64(s.MaxErr)))
		}
	}
	for _, est := range e.Estimates() {
		bits = append(bits, math.Float64bits(est[0]))
	}
	e.SetMetrics(nil)
	return bits
}

// poolSpins is how many waits of the engine's pool, on either side of
// the barrier, polled before they were satisfied or parked.
func poolSpins(e *Engine) int64 {
	w := e.shard.workers
	n := w.join.park.spins.Load()
	for k := range w.slots {
		n += w.slots[k].park.spins.Load()
	}
	return n
}

// TestShardPoolSpinPolicy: the pool spins only when it fits the
// processors (p ≤ GOMAXPROCS and p ≤ NumCPU), GOMAXPROCS 1 runs every
// fan-out inline without starting a pool, and every policy produces the
// bytes of WithShards(1).
func TestShardPoolSpinPolicy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const rounds = 40
	ref := poolRounds(poolEngine(1), rounds)
	same := func(label string, got []uint64) {
		t.Helper()
		if len(got) != len(ref) {
			t.Fatalf("%s: %d values, want %d", label, len(got), len(ref))
		}
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("%s: value %d differs from WithShards(1): %x vs %x", label, k, got[k], ref[k])
			}
		}
	}

	e := poolEngine(8)
	same("GOMAXPROCS 2, WithShards(8)", poolRounds(e, rounds))
	if e.shard.workers == nil {
		t.Fatal("GOMAXPROCS 2, WithShards(8): no worker pool started")
	}
	if n := poolSpins(e); n != 0 {
		t.Errorf("GOMAXPROCS 2, WithShards(8): %d spinning waits, want 0", n)
	}
	e.Close()

	e = poolEngine(2)
	same("GOMAXPROCS 2, WithShards(2)", poolRounds(e, rounds))
	if n := poolSpins(e); runtime.NumCPU() >= 2 && n == 0 {
		t.Errorf("GOMAXPROCS 2, WithShards(2) on %d CPUs: no spinning waits", runtime.NumCPU())
	}
	e.Close()

	// More shards than CPUs, with GOMAXPROCS raised to match: the pool
	// fits GOMAXPROCS but not the CPUs, so it must not spin either.
	p := runtime.NumCPU() + 1
	runtime.GOMAXPROCS(p)
	e = poolEngine(p)
	same(fmt.Sprintf("GOMAXPROCS %d, WithShards(%d)", p, p), poolRounds(e, rounds))
	if n := poolSpins(e); n != 0 {
		t.Errorf("WithShards(%d) on %d CPUs: %d spinning waits, want 0", p, runtime.NumCPU(), n)
	}
	e.Close()

	runtime.GOMAXPROCS(1)
	e = poolEngine(4)
	same("GOMAXPROCS 1, WithShards(4)", poolRounds(e, rounds))
	if e.shard.workers != nil {
		t.Error("GOMAXPROCS 1, WithShards(4): a worker pool was started; the round must run inline")
	}
}

// settledGoroutines collects garbage until the goroutine count stops
// falling (pools of engines dropped by earlier tests are reclaimed by GC
// cleanups) and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for range 50 {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// awaitGoroutines fails the test unless the goroutine count falls to
// base within 10 s, collecting garbage between polls.
func awaitGoroutines(t *testing.T, label string, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after 10 s, want ≤ %d", label, runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestShardPoolLifetime: Close stops the pool's workers, and an engine
// dropped without Close is collected by the first GC after its last
// round, whether its workers are spinning (p = 2 ≤ GOMAXPROCS) or
// parked (p = 3 > GOMAXPROCS), after which its GC cleanup stops them. A
// worker that kept its last task (a bound method value of the engine)
// would keep the engine reachable, and its goroutines alive, for ever.
func TestShardPoolLifetime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base := settledGoroutines()
	for _, p := range []int{2, 3} {
		e := poolEngine(p)
		poolRounds(e, 10)
		if got := runtime.NumGoroutine(); got < base+p-1 {
			t.Fatalf("p=%d: %d goroutines during the run, want ≥ %d", p, got, base+p-1)
		}
		e.Close()
		awaitGoroutines(t, fmt.Sprintf("p=%d after Close", p), base)

		wp := func() weak.Pointer[Engine] {
			e := poolEngine(p)
			poolRounds(e, 10)
			return weak.Make(e)
		}()
		runtime.GC()
		if wp.Value() != nil {
			t.Fatalf("p=%d: engine dropped without Close is still reachable after a GC", p)
		}
		awaitGoroutines(t, fmt.Sprintf("p=%d dropped without Close", p), base)
	}
}

// BenchmarkFanOut times the fixed cost of one fan-out over two shards,
// barrier included, in ns/op: the fan-out's wall-clock beyond its
// tasks' own work. "empty" hands out an empty task; then the caller,
// parked at the join, runs the worker's task itself on its own thread,
// so no CPU wakes up. "busy" holds both CPUs for 100 µs per task, as a
// round's phase does, so the join and the next post cross CPUs: that is
// where a parked waiter pays its wake-up.
func BenchmarkFanOut(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range []struct {
		name string
		work time.Duration
	}{{"empty", 0}, {"busy", 100 * time.Microsecond}} {
		b.Run(c.name, func(b *testing.B) {
			e := poolEngine(2)
			defer e.Close()
			task := func(int) {
				for t0 := time.Now(); time.Since(t0) < c.work; {
				}
			}
			e.runShards("bench", metrics.PhaseErrors, task)
			t0 := time.Now()
			for range b.N {
				e.runShards("bench", metrics.PhaseErrors, task)
			}
			extra := time.Since(t0) - time.Duration(b.N)*c.work
			b.ReportMetric(float64(extra.Nanoseconds())/float64(b.N), "ns/op")
		})
	}
}

// TestShardPoolBarrierStress runs many short fan-outs, spinning (p = 2)
// and parking (p = 3, 8 > GOMAXPROCS), and checks after every join that
// each shard's task ran exactly once: a join that returned early (on a
// stale wake-up) or a task that ran twice shows as a wrong count, a
// lost wake-up as a hang.
func TestShardPoolBarrierStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const fanouts = 5000
	for _, p := range []int{2, 3, 8} {
		e := poolEngine(p)
		ran := make([]shardLocal, p) // padded per-shard counters
		task := func(s int) {
			for range s % 3 * 10 { // uneven tasks: either side may wait
				runtime.Gosched()
			}
			ran[s].keep++
		}
		for k := 1; k <= fanouts; k++ {
			e.runShards("stress", metrics.PhaseErrors, task)
			for s := range ran {
				if ran[s].keep != k {
					t.Fatalf("p=%d: after fan-out %d shard %d ran %d times", p, k, s, ran[s].keep)
				}
			}
		}
		e.Close()
	}
}
