package sim_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"pcfreduce/internal/core"
	"pcfreduce/internal/detect"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/pushsum"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// shardFingerprint captures everything the sharded executor promises to
// keep byte-identical across shard counts: per-node estimates and
// errors (as raw float64 bits), per-edge flow state, detector
// suspicions and counters, and liveness.
type shardFingerprint struct {
	estimates [][]uint64
	errors    []uint64
	flows     map[[2]int][]uint64
	suspects  [][]int
	stats     sim.DetectorStats
	alive     []bool
	round     int
}

func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// fingerprintEngine runs eng for rounds steps under the given per-round
// hook and returns its full observable state.
func fingerprintEngine(eng *sim.Engine, rounds int, onRound func(*sim.Engine, int)) shardFingerprint {
	for r := 0; r < rounds; r++ {
		if onRound != nil {
			onRound(eng, eng.Round())
		}
		eng.Step()
	}
	n := eng.N()
	fp := shardFingerprint{
		flows: make(map[[2]int][]uint64),
		stats: eng.DetectorStats(),
		round: eng.Round(),
	}
	for _, est := range eng.Estimates() {
		fp.estimates = append(fp.estimates, bitsOf(est))
	}
	fp.errors = bitsOf(eng.Errors())
	g := eng.Graph()
	for i := 0; i < n; i++ {
		fp.alive = append(fp.alive, eng.Alive(i))
		fp.suspects = append(fp.suspects, eng.Suspects(i))
		fl, ok := eng.Protocol(i).(gossip.Flows)
		if !ok {
			continue
		}
		for _, j32 := range g.Neighbors(i) {
			j := int(j32)
			if f := fl.Flow(j); f.X != nil {
				fp.flows[[2]int{i, j}] = bitsOf(f.X)
			}
		}
	}
	return fp
}

func sameFingerprint(t *testing.T, label string, want, got shardFingerprint) {
	t.Helper()
	if want.round != got.round {
		t.Fatalf("%s: round %d, want %d", label, got.round, want.round)
	}
	if want.stats != got.stats {
		t.Fatalf("%s: detector stats %+v, want %+v", label, got.stats, want.stats)
	}
	for i := range want.alive {
		if want.alive[i] != got.alive[i] {
			t.Fatalf("%s: node %d alive=%v, want %v", label, i, got.alive[i], want.alive[i])
		}
	}
	for i := range want.estimates {
		if !sameBits(want.estimates[i], got.estimates[i]) {
			t.Fatalf("%s: node %d estimate differs", label, i)
		}
	}
	if !sameBits(want.errors, got.errors) {
		t.Fatalf("%s: error vector differs", label)
	}
	for i := range want.suspects {
		if !sameInts(want.suspects[i], got.suspects[i]) {
			t.Fatalf("%s: node %d suspects %v, want %v", label, i, got.suspects[i], want.suspects[i])
		}
	}
	if len(want.flows) != len(got.flows) {
		t.Fatalf("%s: %d flow edges, want %d", label, len(got.flows), len(want.flows))
	}
	for k, w := range want.flows {
		if !sameBits(w, got.flows[k]) {
			t.Fatalf("%s: flow %v differs", label, k)
		}
	}
}

func sameBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shardCounts is the property-test domain: P=1 is the sequential
// reference, 2 and 3 exercise uneven contiguous partitions (32 nodes do
// not divide evenly by 3), 8 exercises real fan-out.
var shardCounts = []int{1, 2, 3, 8}

// TestShardDeterminismPlain asserts that a fault-free run produces
// byte-identical estimates, errors and flow state for every shard
// count, across all four protocol families.
func TestShardDeterminismPlain(t *testing.T) {
	protos := []struct {
		name string
		mk   func() gossip.Protocol
	}{
		{"pcf-efficient", func() gossip.Protocol { return core.NewEfficient() }},
		{"pcf-robust", func() gossip.Protocol { return core.NewRobust() }},
		{"pushflow", func() gossip.Protocol { return pushflow.New() }},
		{"pushsum", func() gossip.Protocol { return pushsum.New() }},
	}
	g := topology.Hypercube(5)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(3*i%11) + 0.25
	}
	for _, pc := range protos {
		t.Run(pc.name, func(t *testing.T) {
			var want shardFingerprint
			for idx, p := range shardCounts {
				eng := sim.NewScalar(g, fuzzProtos(n, pc.mk), inputs, gossip.Average, 7,
					sim.WithShards(p))
				if got := eng.Shards(); got != p {
					t.Fatalf("Shards() = %d, want %d", got, p)
				}
				fp := fingerprintEngine(eng, 200, nil)
				if idx == 0 {
					want = fp
					continue
				}
				sameFingerprint(t, fmt.Sprintf("P=%d vs P=1", p), want, fp)
			}
		})
	}
}

// TestShardDeterminismFaults replays the cross-engine fault scenario —
// a silent node crash plus a transient link outage, both observable
// only through the failure detector — and asserts byte-identical
// survivor estimates, flows, suspicions and detector counters for
// every shard count.
func TestShardDeterminismFaults(t *testing.T) {
	g := topology.Hypercube(5)
	n := g.N()
	const crash = 5
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(3*i%11) + 0.25
	}
	mk := func() gossip.Protocol { return core.NewEfficient() }
	events := append(fault.LinkOutage(10, 120, 0, 1), fault.SilentNodeCrash(40, crash))

	var want shardFingerprint
	for idx, p := range shardCounts {
		plan := fault.NewPlan(events...)
		eng := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 11,
			sim.WithShards(p),
			sim.WithDetector(detect.Config{Timeout: 30}))
		fp := fingerprintEngine(eng, 400, plan.OnRound)
		if idx == 0 {
			want = fp
			if fp.stats.Suspicions == 0 {
				t.Fatalf("reference run registered no suspicions — fault plan inert")
			}
			if fp.stats.Reintegrations < 2 {
				t.Fatalf("reference run: %d reintegrations, want ≥ 2", fp.stats.Reintegrations)
			}
			suspected := false
			for _, j32 := range g.Neighbors(crash) {
				if crossContains(eng.Suspects(int(j32)), crash) {
					suspected = true
				}
			}
			if !suspected {
				t.Fatalf("reference run: no neighbor suspects the crashed node")
			}
			continue
		}
		sameFingerprint(t, fmt.Sprintf("P=%d vs P=1", p), want, fp)
	}
}

// TestShardDeterminismReset asserts that Reset rewinds a sharded engine
// to a byte-identical replay: run, fingerprint, Reset with the same
// seed, run again, compare.
func TestShardDeterminismReset(t *testing.T) {
	g := topology.Ring(24)
	n := g.N()
	inputs := make([]float64, n)
	for i := range inputs {
		inputs[i] = float64(5*i%13) + 0.5
	}
	mk := func() gossip.Protocol { return core.NewRobust() }
	eng := sim.NewScalar(g, fuzzProtos(n, mk), inputs, gossip.Average, 3,
		sim.WithShards(4),
		sim.WithDetector(detect.Config{Timeout: 30}))
	first := fingerprintEngine(eng, 150, nil)
	eng.Reset(3)
	second := fingerprintEngine(eng, 150, nil)
	sameFingerprint(t, "replay after Reset", first, second)
}

// TestShardConvergence sanity-checks that the sharded model actually
// computes the right answer: every shard count converges to the true
// mean of the inputs.
func TestShardConvergence(t *testing.T) {
	g := topology.Hypercube(6)
	n := g.N()
	inputs := make([]float64, n)
	var sum float64
	for i := range inputs {
		inputs[i] = float64(7*i%17) + 0.125
		sum += inputs[i]
	}
	want := sum / float64(n)
	for _, p := range shardCounts {
		eng := sim.NewScalar(g, fuzzProtos(n, func() gossip.Protocol { return core.NewEfficient() }),
			inputs, gossip.Average, 9, sim.WithShards(p))
		res := eng.Run(sim.RunConfig{MaxRounds: 4000, Eps: 1e-11})
		if !res.Converged {
			t.Fatalf("P=%d did not converge: %.3e", p, eng.MaxError())
		}
		if est := estimateOf(eng.Protocol(0))[0]; math.Abs(est-want) > 1e-8 {
			t.Fatalf("P=%d estimate %.12g, want %.12g", p, est, want)
		}
	}
}

// TestShardedPCFConvergesFaultFree: on the phase-split engine both ends
// of an edge send in the same round, so a node that swaps PCF roles
// (case (ii)) and pushes into its new active slot in one activation
// meets the peer's message composed before the peer saw the swap.
// Adopting that message's role used to undo the swap and lose slot mass
// for good, stalling fault-free runs near 1e-2: ring(8) seed 302 and
// hypercube(4) seeds 68 and 579, with integer inputs 0–15. Those cases
// and a 200-seed hypercube(4) sweep must converge for both variants on
// one and two shards.
func TestShardedPCFConvergesFaultFree(t *testing.T) {
	type run struct {
		g    *topology.Graph
		seed int64
	}
	runs := []run{{topology.Ring(8), 302}, {topology.Hypercube(4), 68}, {topology.Hypercube(4), 579}}
	for seed := int64(0); seed < 200; seed++ {
		runs = append(runs, run{topology.Hypercube(4), seed})
	}
	for _, v := range []core.Variant{core.VariantEfficient, core.VariantRobust} {
		for _, p := range []int{1, 2} {
			for _, r := range runs {
				n := r.g.N()
				rng := rand.New(rand.NewSource(r.seed))
				inputs := make([]float64, n)
				for i := range inputs {
					inputs[i] = float64(rng.Intn(16))
				}
				e := sim.NewScalar(r.g, fuzzProtos(n, func() gossip.Protocol { return core.New(v) }),
					inputs, gossip.Average, r.seed, sim.WithShards(p))
				res := e.Run(sim.RunConfig{MaxRounds: 2000, Eps: 1e-12})
				e.Close()
				if !res.Converged {
					t.Errorf("%v, %d shards, n=%d seed %d: not converged after %d rounds, error %.3e",
						v, p, n, r.seed, res.Rounds, res.BestMax)
				}
			}
		}
	}
}

// TestShardedRoundAllocFree pins the steady-state sharded round — Step
// plus the Errors scan every Run round performs — and the Observe probe
// at zero allocations on a two-shard engine whose phases really run on
// the worker pool. Every task handed to runShards must be bound once at
// set-up; a closure built per call escapes through the pool's task
// channel. Data messages live in the engine's message slots, built on
// the first Step, so no round after it may allocate one: four windows
// of Step are counted, not one, and one more with a timing-off recorder
// attached.
func TestShardedRoundAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := topology.Hypercube(8)
	protos := make([]gossip.Protocol, g.N())
	for i := range protos {
		protos[i] = core.NewEfficient()
	}
	inputs := make([]float64, g.N())
	for i := range inputs {
		inputs[i] = float64(i%13) + 0.5
	}
	e := sim.NewScalar(g, protos, inputs, gossip.Average, 5, sim.WithShards(2))
	defer e.Close()
	for r := 0; r < 96; r++ { // inbox and bucket high-water marks settle
		e.Step()
		e.Errors()
	}
	for w := range 4 {
		if a := windowAllocs(50, e.Step); a != 0 {
			t.Errorf("Step window %d: %d allocs in 50 calls, want 0", w, a)
		}
	}
	if a := windowAllocs(50, func() { e.Errors() }); a != 0 {
		t.Errorf("Errors: %d allocs in 50 calls, want 0", a)
	}
	// The first Observe allocates the probe scratch, and the recorder's
	// sample history grows by append: its capacity runs 68, 136, 307, so
	// after 137 samples the 51 measured ones fit without a reallocation.
	e.SetMetrics(metrics.New(metrics.Config{Shards: 2, Interval: 1 << 30}))
	for range 137 {
		e.Observe()
	}
	if a := windowAllocs(50, e.Observe); a != 0 {
		t.Errorf("Observe: %d allocs in 50 calls, want 0", a)
	}
	if a := windowAllocs(50, e.Step); a != 0 {
		t.Errorf("Step with a timing-off recorder: %d allocs in 50 calls, want 0", a)
	}
	e.SetMetrics(nil)
	// Between-round operations (Drain, FailLink's flush and resync,
	// CrashNode's purge) must leave the next round nothing to allocate:
	// FailLink's resync exchange uses the engine's own message, not a
	// pooled one from free lists that data sends no longer fill.
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"Drain", e.Drain},
		{"FailLink", func() { e.FailLink(0, 1) }},
		{"CrashNode", func() { e.CrashNode(200) }},
	} {
		op.f()
		if a := firstStepAllocs(e); a != 0 {
			t.Errorf("Step after %s: %d allocs, want 0", op.name, a)
		}
	}
}

// windowAllocs counts the heap allocations of runs calls of f, after one
// warm-up call: testing.AllocsPerRun without its GOMAXPROCS(1) pin, so
// that a sharded engine's phases really fan out onto the worker pool,
// and without its rounding down of the per-call mean, which reads a
// window of up to runs−1 allocations as zero.
//
// The runtime's wait records (sudogs), taken whenever the caller blocks
// at a phase barrier or a worker parks between tasks, are not the
// engine's allocations: the runtime keeps them in per-P caches that
// every GC empties and that refill one allocation at a time as parked
// goroutines migrate between Ps. The window therefore runs with the
// collector off, after a completed GC and stockWaitRecords, so it
// counts the engine alone.
func windowAllocs(runs int, f func()) uint64 {
	f()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	stockWaitRecords()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for range runs {
		f()
	}
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

// stockWaitRecords parks a few hundred goroutines on one channel at
// once and releases them: each parked goroutine holds a wait record, so
// the runtime's caches end up holding more records than any P can keep
// to itself (128 per P), and a P that runs dry refills from the shared
// cache instead of allocating.
func stockWaitRecords() {
	const parked = 512
	var started, done sync.WaitGroup
	started.Add(parked)
	done.Add(parked)
	release := make(chan struct{})
	for range parked {
		go func() {
			started.Done()
			<-release
			done.Done()
		}()
	}
	started.Wait()
	time.Sleep(time.Millisecond) // let the last starters reach the receive
	close(release)
	done.Wait()
}

// firstStepAllocs counts the heap allocations of exactly one Step —
// unlike testing.AllocsPerRun, without a warm-up call that would hide
// what the first round after a teardown allocates. GOMAXPROCS is 1
// while measuring, as in AllocsPerRun, so no other goroutine's
// allocations are counted.
func firstStepAllocs(e *sim.Engine) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	e.Step()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}
