package pcfreduce_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"pcfreduce"
	"pcfreduce/internal/metrics"
)

func inputsFor(g *pcfreduce.Graph) []float64 {
	out := make([]float64, g.N())
	for i := range out {
		out[i] = float64(i%7) + 0.5
	}
	return out
}

func TestReduceAverage(t *testing.T) {
	g := pcfreduce.Hypercube(5)
	in := inputsFor(g)
	res, err := pcfreduce.Reduce(in, pcfreduce.PCF, pcfreduce.ReduceOptions{
		Topology: g,
		Eps:      1e-13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %.3e", res.MaxError)
	}
	var want float64
	for _, x := range in {
		want += x
	}
	want /= float64(len(in))
	if math.Abs(res.Exact-want) > 1e-12 {
		t.Fatalf("Exact = %.15g, want %.15g", res.Exact, want)
	}
	for i, est := range res.Estimates {
		if math.Abs(est-want)/want > 1e-12 {
			t.Fatalf("node %d estimate %.15g", i, est)
		}
	}
}

func TestReduceSum(t *testing.T) {
	g := pcfreduce.Ring(16)
	in := inputsFor(g)
	res, err := pcfreduce.Reduce(in, pcfreduce.PushFlow, pcfreduce.ReduceOptions{
		Topology:  g,
		Aggregate: pcfreduce.Sum,
		Eps:       1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %.3e", res.MaxError)
	}
	var want float64
	for _, x := range in {
		want += x
	}
	if math.Abs(res.Estimates[7]-want)/want > 1e-11 {
		t.Fatalf("estimate %.15g, want %.15g", res.Estimates[7], want)
	}
}

func TestReduceValidation(t *testing.T) {
	g := pcfreduce.Path(4)
	if _, err := pcfreduce.Reduce([]float64{1, 2, 3, 4}, pcfreduce.PCF, pcfreduce.ReduceOptions{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := pcfreduce.Reduce([]float64{1, 2}, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g}); err == nil {
		t.Fatal("wrong input length accepted")
	}
	disconnected := pcfreduce.Grid2D(1, 1)
	_ = disconnected
	two := pcfreduce.Path(2).RemoveEdge(0, 1)
	if _, err := pcfreduce.Reduce([]float64{1, 2}, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: two}); err == nil {
		t.Fatal("disconnected topology accepted")
	}
	in := []float64{1, 2, 3, 4}
	rejectsInvalid(t, "Reduce", false, func(algo pcfreduce.Algorithm, opt pcfreduce.ReduceOptions) error {
		_, err := pcfreduce.Reduce(in, algo, opt)
		return err
	})
	rejectsInvalid(t, "WeightedReduce", false, func(algo pcfreduce.Algorithm, opt pcfreduce.ReduceOptions) error {
		_, err := pcfreduce.WeightedReduce(in, []float64{1, 1, 1, 1}, algo, opt)
		return err
	})
}

// invalidCase is a run over Path(4) that every entry point must reject
// with an error, never a panic.
type invalidCase struct {
	name    string
	algo    pcfreduce.Algorithm
	opt     pcfreduce.ReduceOptions
	session bool // SessionOptions can express it
}

func invalidCases() []invalidCase {
	g := pcfreduce.Path(4)
	nan := math.NaN()
	type lf = pcfreduce.LinkFailure
	type nc = pcfreduce.NodeCrash
	return []invalidCase{
		{"no topology", pcfreduce.PCF, pcfreduce.ReduceOptions{}, true},
		{"unknown algorithm", pcfreduce.Algorithm(99), pcfreduce.ReduceOptions{Topology: g}, true},
		{"unknown aggregate", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, Aggregate: 7}, true},
		{"loss rate 2", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, LossRate: 2}, true},
		{"loss rate -0.1", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, LossRate: -0.1}, true},
		{"loss rate NaN", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, LossRate: nan}, true},
		{"eps -1", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, Eps: -1}, false},
		{"eps NaN", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, Eps: nan}, false},
		{"max rounds -1", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, MaxRounds: -1}, false},
		{"shards -1", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, Shards: -1}, false},
		{"link failure off the graph", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, LinkFailures: []lf{{Round: 1, A: 0, B: 3}}}, false},
		{"link failure to node 9", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, LinkFailures: []lf{{Round: 1, A: 3, B: 9}}}, false},
		{"link failure from node -1", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, LinkFailures: []lf{{Round: 1, A: -1, B: 0}}}, false},
		{"link failure at round -1", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, LinkFailures: []lf{{Round: -1, A: 0, B: 1}}}, false},
		{"crash of node 99", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, NodeCrashes: []nc{{Round: 1, Node: 99}}}, false},
		{"crash of node -1", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, NodeCrashes: []nc{{Round: 1, Node: -1}}}, false},
		{"crash at round -1", pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, NodeCrashes: []nc{{Round: -1, Node: 2}}}, false},
	}
}

// rejectsInvalid runs every invalid case (only those SessionOptions can
// express, for a session) through one entry point, which must return an
// error without panicking.
func rejectsInvalid(t *testing.T, entry string, session bool, run func(pcfreduce.Algorithm, pcfreduce.ReduceOptions) error) {
	t.Helper()
	for _, c := range invalidCases() {
		if session && !c.session {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panicked on %s: %v", entry, c.name, r)
				}
			}()
			if err := run(c.algo, c.opt); err == nil {
				t.Errorf("%s accepted %s", entry, c.name)
			}
		}()
	}
}

func TestReduceWithFaults(t *testing.T) {
	g := pcfreduce.Hypercube(5)
	in := inputsFor(g)
	var traced int
	res, err := pcfreduce.Reduce(in, pcfreduce.PCF, pcfreduce.ReduceOptions{
		Topology:     g,
		Eps:          1e-12,
		MaxRounds:    5000,
		LossRate:     0.05,
		LinkFailures: []pcfreduce.LinkFailure{{Round: 30, A: 0, B: 1}},
		NodeCrashes:  []pcfreduce.NodeCrash{{Round: 0, Node: 9}},
		Trace:        func(round int, maxErr float64) { traced++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged under faults: %.3e", res.MaxError)
	}
	if traced != res.Rounds {
		t.Fatalf("trace called %d times for %d rounds", traced, res.Rounds)
	}
	if !math.IsNaN(res.Estimates[9]) {
		t.Fatal("crashed node must report NaN")
	}
	// With node 9 crashed at round 0, Exact is the survivors' average.
	var want float64
	for i, x := range in {
		if i != 9 {
			want += x
		}
	}
	want /= float64(len(in) - 1)
	if math.Abs(res.Exact-want) > 1e-12 {
		t.Fatalf("Exact = %.15g, want survivors' %.15g", res.Exact, want)
	}
}

func TestReduceDeterminism(t *testing.T) {
	g := pcfreduce.Torus2D(4, 4)
	in := inputsFor(g)
	opt := pcfreduce.ReduceOptions{Topology: g, Seed: 42, MaxRounds: 60, Eps: 1e-300}
	a, err := pcfreduce.Reduce(in, pcfreduce.PCF, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pcfreduce.Reduce(in, pcfreduce.PCF, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Estimates {
		if a.Estimates[i] != b.Estimates[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestAlgorithmNames(t *testing.T) {
	names := map[pcfreduce.Algorithm]string{
		pcfreduce.PCF:          "PCF",
		pcfreduce.PCFRobust:    "PCF-robust",
		pcfreduce.PushFlow:     "push-flow",
		pcfreduce.PushSum:      "push-sum",
		pcfreduce.FlowUpdating: "flow-updating",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%v", a)
		}
		if a.NewNode() == nil {
			t.Fatalf("%v: nil node", a)
		}
	}
}

func TestReduceConcurrent(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	in := inputsFor(g)
	res, err := pcfreduce.ReduceConcurrent(context.Background(), in, pcfreduce.PCF, pcfreduce.ConcurrentOptions{
		Topology: g,
		Eps:      1e-9,
		Timeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %.3e", res.MaxError)
	}
	if math.Abs(res.Estimates[3]-res.Exact)/res.Exact > 1e-8 {
		t.Fatalf("estimate %.12g vs exact %.12g", res.Estimates[3], res.Exact)
	}
}

func TestReduceConcurrentValidation(t *testing.T) {
	if _, err := pcfreduce.ReduceConcurrent(context.Background(), nil, pcfreduce.PCF, pcfreduce.ConcurrentOptions{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	g := pcfreduce.Ring(4)
	if _, err := pcfreduce.ReduceConcurrent(context.Background(), []float64{1}, pcfreduce.PCF, pcfreduce.ConcurrentOptions{Topology: g}); err == nil {
		t.Fatal("wrong length accepted")
	}
	in := []float64{1, 2, 3, 4}
	if _, err := pcfreduce.ReduceConcurrent(context.Background(), in, pcfreduce.Algorithm(99), pcfreduce.ConcurrentOptions{Topology: g}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := pcfreduce.ReduceConcurrent(context.Background(), in, pcfreduce.PCF, pcfreduce.ConcurrentOptions{Topology: g, Aggregate: 7}); err == nil {
		t.Fatal("unknown aggregate accepted")
	}
	// Two disjoint edges: rejected up front, as Reduce rejects them, not
	// run until the timeout.
	split := pcfreduce.Ring(4).RemoveEdge(1, 2).RemoveEdge(3, 0)
	start := time.Now()
	if _, err := pcfreduce.ReduceConcurrent(context.Background(), in, pcfreduce.PCF, pcfreduce.ConcurrentOptions{Topology: split, Timeout: 2 * time.Second}); err == nil {
		t.Fatalf("disconnected topology accepted (returned after %v)", time.Since(start))
	}
}

func TestQRFacade(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	v := pcfreduce.RandomMatrix(16, 5, 7)
	res, err := pcfreduce.QR(v, pcfreduce.PCF, pcfreduce.QROptions{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	if res.FactorizationError > 1e-12 {
		t.Fatalf("factorization error %.3e", res.FactorizationError)
	}
	if res.OrthogonalityError > 1e-12 {
		t.Fatalf("orthogonality error %.3e", res.OrthogonalityError)
	}
	if res.Reductions != 9 || res.TotalRounds <= 0 {
		t.Fatalf("work counters %+v", res)
	}
	if res.Q.Rows != 16 || res.Q.Cols != 5 || res.R.Rows != 5 {
		t.Fatal("factor shapes")
	}
	if _, err := pcfreduce.QR(v, pcfreduce.PCF, pcfreduce.QROptions{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := pcfreduce.QR(v, pcfreduce.Algorithm(99), pcfreduce.QROptions{Topology: g}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestNewMatrixHelpers(t *testing.T) {
	m := pcfreduce.NewMatrix(2, 2)
	if m.Rows != 2 || m.At(1, 1) != 0 {
		t.Fatal("NewMatrix")
	}
	r := pcfreduce.RandomMatrix(3, 3, 1)
	if r.Rows != 3 || r.MaxAbs() == 0 {
		t.Fatal("RandomMatrix")
	}
}

func TestEigenFacade(t *testing.T) {
	g := pcfreduce.Hypercube(3)
	n := g.N()
	// Diagonal-dominant symmetric matrix with a clear dominant pair.
	a := pcfreduce.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	a.Set(0, 0, 12)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	res, err := pcfreduce.Eigen(a, pcfreduce.PCF, pcfreduce.EigenOptions{
		Topology:     g,
		Eigenvectors: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged after %d iterations", res.Iterations)
	}
	// Dominant eigenvalue of the 2x2 block [[12,2],[2,1]] ⊕ I:
	// (13 + sqrt(121+16))/2.
	want := (13 + math.Sqrt(137)) / 2
	if math.Abs(res.Values[0]-want) > 1e-8 {
		t.Fatalf("λ1 = %.12g, want %.12g", res.Values[0], want)
	}
	if _, err := pcfreduce.Eigen(a, pcfreduce.PCF, pcfreduce.EigenOptions{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := pcfreduce.Eigen(a, pcfreduce.Algorithm(99), pcfreduce.EigenOptions{Topology: g}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestWeightedReduce(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	n := g.N()
	inputs := make([]float64, n)
	weights := make([]float64, n)
	var num, den float64
	for i := range inputs {
		inputs[i] = float64(i)
		weights[i] = float64(i%3) + 0.5
		num += weights[i] * inputs[i]
		den += weights[i]
	}
	res, err := pcfreduce.WeightedReduce(inputs, weights, pcfreduce.PCF, pcfreduce.ReduceOptions{
		Topology: g,
		Eps:      1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := num / den
	if math.Abs(res.Exact-want) > 1e-12 {
		t.Fatalf("Exact = %.15g, want %.15g", res.Exact, want)
	}
	if !res.Converged {
		t.Fatalf("not converged: %.3e", res.MaxError)
	}
	if math.Abs(res.Estimates[7]-want)/want > 1e-11 {
		t.Fatalf("estimate %.15g", res.Estimates[7])
	}
	// Validation.
	if _, err := pcfreduce.WeightedReduce(inputs, weights[:3], pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g}); err == nil {
		t.Fatal("mismatched weights accepted")
	}
	weights[2] = 0
	if _, err := pcfreduce.WeightedReduce(inputs, weights, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g}); err == nil {
		t.Fatal("zero weight accepted")
	}
}

// weightedDigest is the SHA-256 of a result's estimates, exact value,
// round count, convergence flag and final error, bit for bit.
func weightedDigest(r pcfreduce.ReduceResult) string {
	var b []byte
	for _, x := range append(r.Estimates, r.Exact, r.MaxError, float64(r.Rounds)) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	if r.Converged {
		b = append(b, 1)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestWeightedReduceOptions is the cross-entry-point table: each
// ReduceOptions field is run through Reduce, WeightedReduce with unit
// weights and ReduceBatch at width 1, which share one run path, so for
// each field the three must agree bit for bit: estimates, Exact, rounds,
// error, Trace calls and recorder counters. Where a case sets only
// fields a Session has (Seed, Aggregate, LossRate; Eps and MaxRounds go
// to StepUntil), NewSession + StepUntil must agree too. Every case but
// the default changes the run, so an ignored field would show as a
// repeat of the sequential result. The default weighted run keeps the
// result it had before the entry points shared a path (digest recorded
// then).
func TestWeightedReduceOptions(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	n := g.N()
	in := inputsFor(g)
	unit := make([]float64, n)
	weights := make([]float64, n)
	vec := make([][]float64, n)
	for i := range unit {
		unit[i] = 1
		weights[i] = float64(i%3) + 0.5
		vec[i] = []float64{in[i]}
	}
	res, err := pcfreduce.WeightedReduce(in, weights, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := weightedDigest(res), "d6ca85aa4709f5ae3feb9c0b0d4a77f8ba719f07319aa45720bf2d23641484c7"; got != want {
		t.Errorf("Shards 0 weighted result changed: digest %s, want %s", got, want)
	}

	link := []pcfreduce.LinkFailure{{Round: 5, A: 0, B: 1}}
	crash := []pcfreduce.NodeCrash{{Round: 5, Node: 3}}
	digests := map[string]string{}
	for _, c := range []struct {
		name string
		opt  pcfreduce.ReduceOptions
	}{
		{"sequential", pcfreduce.ReduceOptions{}},
		{"seed", pcfreduce.ReduceOptions{Seed: 7}},
		{"eps", pcfreduce.ReduceOptions{Eps: 1e-6}},
		{"maxrounds", pcfreduce.ReduceOptions{MaxRounds: 40}},
		{"aggregate-sum", pcfreduce.ReduceOptions{Aggregate: pcfreduce.Sum}},
		{"shards1", pcfreduce.ReduceOptions{Shards: 1}},
		{"shards2", pcfreduce.ReduceOptions{Shards: 2}},
		{"loss", pcfreduce.ReduceOptions{LossRate: 0.05}},
		{"linkfailure", pcfreduce.ReduceOptions{LinkFailures: link}},
		{"linkfailure-shards2", pcfreduce.ReduceOptions{Shards: 2, LinkFailures: link}},
		{"nodecrash", pcfreduce.ReduceOptions{NodeCrashes: crash}},
		{"nodecrash-shards2", pcfreduce.ReduceOptions{Shards: 2, NodeCrashes: crash}},
		{"seed-eps-maxrounds", pcfreduce.ReduceOptions{Seed: 7, Eps: 1e-9, MaxRounds: 60}},
		{"metrics", pcfreduce.ReduceOptions{Shards: 2, Metrics: pcfreduce.NewMetrics(pcfreduce.MetricsConfig{Shards: 2, Interval: 4})}},
	} {
		t.Run(c.name, func(t *testing.T) {
			type run struct {
				res    pcfreduce.ReduceResult
				traced int
				rec    *pcfreduce.MetricsRecorder
			}
			do := func(reduce func(pcfreduce.ReduceOptions) (pcfreduce.ReduceResult, error)) run {
				opt := c.opt
				opt.Topology = g
				if opt.Metrics != nil {
					opt.Metrics = pcfreduce.NewMetrics(pcfreduce.MetricsConfig{Shards: 2, Interval: 4})
				}
				r := run{rec: opt.Metrics}
				opt.Trace = func(int, float64) { r.traced++ }
				res, err := reduce(opt)
				if err != nil {
					t.Fatal(err)
				}
				r.res = res
				return r
			}
			want := do(func(o pcfreduce.ReduceOptions) (pcfreduce.ReduceResult, error) {
				return pcfreduce.Reduce(in, pcfreduce.PCF, o)
			})
			weighted := do(func(o pcfreduce.ReduceOptions) (pcfreduce.ReduceResult, error) {
				return pcfreduce.WeightedReduce(in, unit, pcfreduce.PCF, o)
			})
			batch := do(func(o pcfreduce.ReduceOptions) (pcfreduce.ReduceResult, error) {
				b, err := pcfreduce.ReduceBatch(vec, pcfreduce.PCF, o)
				if err != nil {
					return pcfreduce.ReduceResult{}, err
				}
				r := pcfreduce.ReduceResult{Exact: b.Exact[0], Rounds: b.Rounds, Converged: b.Converged, MaxError: b.MaxError}
				for _, est := range b.Estimates {
					r.Estimates = append(r.Estimates, est[0])
				}
				return r, nil
			})
			if want.traced != want.res.Rounds {
				t.Errorf("Reduce called Trace %d times for %d rounds", want.traced, want.res.Rounds)
			}
			for _, got := range []struct {
				name string
				run
			}{{"WeightedReduce", weighted}, {"ReduceBatch", batch}} {
				if weightedDigest(got.res) != weightedDigest(want.res) {
					t.Errorf("%s (%d rounds, err %.3e) differs from Reduce (%d rounds, err %.3e)",
						got.name, got.res.Rounds, got.res.MaxError, want.res.Rounds, want.res.MaxError)
				}
				if got.traced != want.traced {
					t.Errorf("%s called Trace %d times, Reduce %d", got.name, got.traced, want.traced)
				}
				if got.rec != nil {
					gc, wc := got.rec.Counters(), want.rec.Counters()
					if gc != wc || gc.Get(metrics.MsgsSent) == 0 {
						t.Errorf("%s recorder counters %v, Reduce's %v", got.name, gc, wc)
					}
				}
			}
			if c.opt.NodeCrashes != nil && !math.IsNaN(want.res.Estimates[3]) {
				t.Errorf("crashed node 3 reports %g, want NaN", want.res.Estimates[3])
			}
			o := c.opt
			if o.Shards == 0 && o.LinkFailures == nil && o.NodeCrashes == nil && o.Metrics == nil {
				s, err := pcfreduce.NewSession(in, pcfreduce.PCF, pcfreduce.SessionOptions{
					Topology: g, Aggregate: o.Aggregate, Seed: o.Seed, LossRate: o.LossRate,
				})
				if err != nil {
					t.Fatal(err)
				}
				eps, maxRounds := o.Eps, o.MaxRounds
				if eps == 0 {
					eps = 1e-12
				}
				if maxRounds == 0 {
					maxRounds = 500*4 + 2000 // Reduce's default on 2^4 nodes
				}
				conv := s.StepUntil(eps, maxRounds)
				got := pcfreduce.ReduceResult{Estimates: s.Estimates(), Exact: s.Exact(), Rounds: s.Rounds(), Converged: conv, MaxError: s.MaxError()}
				if weightedDigest(got) != weightedDigest(want.res) {
					t.Errorf("Session (%d rounds, err %.3e) differs from Reduce (%d rounds, err %.3e)",
						got.Rounds, got.MaxError, want.res.Rounds, want.res.MaxError)
				}
			}
			digests[c.name] = weightedDigest(want.res)
		})
	}
	// Were a field ignored, its case would repeat the sequential run.
	for name, d := range digests {
		if name != "sequential" && d == digests["sequential"] {
			t.Errorf("%s gave the sequential run's result: the option had no effect", name)
		}
	}
}

// Reduce and ReduceBatch close the sharded engine they build: its
// workers are gone when the call returns, without waiting for the GC
// cleanup that reclaims dropped engines (the collector is off here).
func TestReduceShardedClosesEngine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base := runtime.NumGoroutine()
	for range 50 { // let earlier tests' dropped engines be reclaimed
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == base {
			break
		} else {
			base = n
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := pcfreduce.Hypercube(5)
	in := inputsFor(g)
	vec := make([][]float64, len(in))
	for i, x := range in {
		vec[i] = []float64{x, 2 * x}
	}
	opt := pcfreduce.ReduceOptions{Topology: g, Eps: 1e-12, Shards: 2}
	for _, run := range []struct {
		name string
		f    func() error
	}{
		{"Reduce", func() error { _, err := pcfreduce.Reduce(in, pcfreduce.PCF, opt); return err }},
		{"ReduceBatch", func() error { _, err := pcfreduce.ReduceBatch(vec, pcfreduce.PCF, opt); return err }},
	} {
		if err := run.f(); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines 5 s after the call, want ≤ %d: its engine was left open",
					run.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// Reduce with Shards set runs on the sharded executor: converged result,
// byte-identical across shard counts, and negative counts rejected.
func TestReduceSharded(t *testing.T) {
	g := pcfreduce.Hypercube(5)
	in := inputsFor(g)
	// The lossy leg installs a stateful fault.Loss interceptor, whose
	// calls the sharded engine must issue in the same order for every
	// shard count.
	for _, loss := range []float64{0, 0.05} {
		run := func(shards int) pcfreduce.ReduceResult {
			res, err := pcfreduce.Reduce(in, pcfreduce.PCF, pcfreduce.ReduceOptions{
				Topology: g,
				Eps:      1e-13,
				Shards:   shards,
				LossRate: loss,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("loss=%g shards=%d not converged: %.3e", loss, shards, res.MaxError)
			}
			return res
		}
		ref := run(1)
		for _, p := range []int{2, 8} {
			got := run(p)
			if got.Rounds != ref.Rounds {
				t.Fatalf("loss=%g shards=%d took %d rounds, shards=1 took %d", loss, p, got.Rounds, ref.Rounds)
			}
			for i := range ref.Estimates {
				if math.Float64bits(got.Estimates[i]) != math.Float64bits(ref.Estimates[i]) {
					t.Fatalf("loss=%g shards=%d node %d estimate differs from shards=1", loss, p, i)
				}
			}
		}
	}
	if _, err := pcfreduce.Reduce(in, pcfreduce.PCF, pcfreduce.ReduceOptions{
		Topology: g,
		Shards:   -2,
	}); err == nil {
		t.Fatal("negative Shards accepted")
	}
}

// TestReduceShardedPCFConvergesFaultFree: a fault-free PCF reduction on
// hypercube(4) with integer inputs, seed 68, converges in 89 rounds
// sequentially but stalled at 1.187e-2 on one or two shards, where both
// ends of an edge send in the same round and a role swap crossed the
// peer's message (PCF's crossing rule, internal/core).
func TestReduceShardedPCFConvergesFaultFree(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	rng := rand.New(rand.NewSource(68))
	in := make([]float64, g.N())
	for i := range in {
		in[i] = float64(rng.Intn(16))
	}
	for _, shards := range []int{0, 1, 2} {
		res, err := pcfreduce.Reduce(in, pcfreduce.PCF, pcfreduce.ReduceOptions{
			Topology: g, Seed: 68, Eps: 1e-12, MaxRounds: 20000, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("shards=%d: not converged after %d rounds, error %.3e", shards, res.Rounds, res.MaxError)
		}
	}
}

// ReduceBatch with k=1 must be bit-identical to Reduce: the batched path
// is a strict generalization, not a parallel implementation with its own
// numerics.
func TestReduceBatchWidthOneBitwise(t *testing.T) {
	g := pcfreduce.Hypercube(5)
	in := inputsFor(g)
	scalar, err := pcfreduce.Reduce(in, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, Eps: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	vec := make([][]float64, len(in))
	for i, x := range in {
		vec[i] = []float64{x}
	}
	batch, err := pcfreduce.ReduceBatch(vec, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, Eps: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Rounds != scalar.Rounds || batch.Converged != scalar.Converged || batch.MaxError != scalar.MaxError {
		t.Fatalf("k=1 batch diverges from scalar: %+v vs %+v", batch, scalar)
	}
	for i := range in {
		if batch.Estimates[i][0] != scalar.Estimates[i] {
			t.Fatalf("node %d: batch %.17g, scalar %.17g", i, batch.Estimates[i][0], scalar.Estimates[i])
		}
	}
	if batch.Exact[0] != scalar.Exact {
		t.Fatalf("exact: %.17g vs %.17g", batch.Exact[0], scalar.Exact)
	}
}

// k aggregates in one run: every component converges to its own exact
// value, in no more rounds than one scalar reduction of the hardest
// component would take times a small constant — NOT k times.
func TestReduceBatchManyAggregates(t *testing.T) {
	g := pcfreduce.Hypercube(5)
	n := g.N()
	const k = 16
	vec := make([][]float64, n)
	for i := range vec {
		vec[i] = make([]float64, k)
		for c := 0; c < k; c++ {
			vec[i][c] = float64((i*(c+1))%13) + 0.25*float64(c+1)
		}
	}
	scalarRounds := 0
	for c := 0; c < k; c++ {
		comp := make([]float64, n)
		for i := range comp {
			comp[i] = vec[i][c]
		}
		res, err := pcfreduce.Reduce(comp, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, Eps: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		scalarRounds += res.Rounds
	}
	batch, err := pcfreduce.ReduceBatch(vec, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g, Eps: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !batch.Converged {
		t.Fatalf("batch did not converge: %.3e", batch.MaxError)
	}
	for c := 0; c < k; c++ {
		var want float64
		for i := range vec {
			want += vec[i][c]
		}
		want /= float64(n)
		if math.Abs(batch.Exact[c]-want) > 1e-11*math.Abs(want) {
			t.Fatalf("component %d: Exact=%.15g, want %.15g", c, batch.Exact[c], want)
		}
		for i := range vec {
			if math.Abs(batch.Estimates[i][c]-want) > 1e-10*math.Abs(want) {
				t.Fatalf("component %d node %d: %.15g, want %.15g", c, i, batch.Estimates[i][c], want)
			}
		}
	}
	// The batching claim: k aggregates cost ~1 reduction's rounds, so the
	// k-run scalar total must dwarf the single batched run.
	if 4*batch.Rounds >= scalarRounds {
		t.Fatalf("batched %d rounds vs %d total scalar rounds — no batching win", batch.Rounds, scalarRounds)
	}
}

// ReduceBatch under faults: a crashed node reports NaNs, and every
// batch component is bitwise equal to a scalar Reduce of that component
// under the identical fault plan — the schedule is width-independent
// and the protocols act component-wise.
func TestReduceBatchWithCrash(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	n := g.N()
	vec := make([][]float64, n)
	for i := range vec {
		vec[i] = []float64{float64(i) + 1, 2 * float64(i)}
	}
	opt := pcfreduce.ReduceOptions{
		Topology:    g,
		Eps:         1e-12,
		NodeCrashes: []pcfreduce.NodeCrash{{Round: 5, Node: 3}},
	}
	batch, err := pcfreduce.ReduceBatch(vec, pcfreduce.PCF, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(batch.Estimates[3][0]) || !math.IsNaN(batch.Estimates[3][1]) {
		t.Fatal("crashed node should report NaN estimates")
	}
	for c := 0; c < 2; c++ {
		comp := make([]float64, n)
		for i := range comp {
			comp[i] = vec[i][c]
		}
		scalar, err := pcfreduce.Reduce(comp, pcfreduce.PCF, opt)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Exact[c] != scalar.Exact || batch.Rounds != scalar.Rounds {
			t.Fatalf("component %d: exact/rounds diverge from scalar", c)
		}
		for i := range comp {
			if i == 3 {
				continue
			}
			if batch.Estimates[i][c] != scalar.Estimates[i] {
				t.Fatalf("component %d node %d: batch %.17g, scalar %.17g", c, i, batch.Estimates[i][c], scalar.Estimates[i])
			}
		}
	}
}

func TestReduceBatchValidation(t *testing.T) {
	g := pcfreduce.Path(4)
	ok := [][]float64{{1}, {2}, {3}, {4}}
	if _, err := pcfreduce.ReduceBatch(ok, pcfreduce.PCF, pcfreduce.ReduceOptions{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := pcfreduce.ReduceBatch(ok[:2], pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g}); err == nil {
		t.Fatal("wrong input length accepted")
	}
	if _, err := pcfreduce.ReduceBatch([][]float64{{1}, {2}, {3, 9}, {4}}, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g}); err == nil {
		t.Fatal("ragged widths accepted")
	}
	if _, err := pcfreduce.ReduceBatch([][]float64{{}, {}, {}, {}}, pcfreduce.PCF, pcfreduce.ReduceOptions{Topology: g}); err == nil {
		t.Fatal("zero width accepted")
	}
	rejectsInvalid(t, "ReduceBatch", false, func(algo pcfreduce.Algorithm, opt pcfreduce.ReduceOptions) error {
		_, err := pcfreduce.ReduceBatch(ok, algo, opt)
		return err
	})
}

// Batched QR: m reductions instead of 2m−1, fewer total rounds, same
// factorization quality.
func TestQRBatched(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	v := pcfreduce.RandomMatrix(16, 6, 3)
	legacy, err := pcfreduce.QR(v, pcfreduce.PCF, pcfreduce.QROptions{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := pcfreduce.QR(v, pcfreduce.PCF, pcfreduce.QROptions{Topology: g, Batched: true, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Reductions != 11 || batched.Reductions != 6 {
		t.Fatalf("reductions: legacy %d (want 11), batched %d (want 6)", legacy.Reductions, batched.Reductions)
	}
	if batched.TotalRounds >= legacy.TotalRounds {
		t.Fatalf("batched QR did not cut rounds: %d vs %d", batched.TotalRounds, legacy.TotalRounds)
	}
	if batched.FactorizationError > 1e-12 || batched.OrthogonalityError > 1e-12 {
		t.Fatalf("batched QR quality: fe=%.3e oe=%.3e", batched.FactorizationError, batched.OrthogonalityError)
	}
}
