package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"pcfreduce/internal/core"
	"pcfreduce/internal/dmgs"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/topology"
)

// Toy-sized versions of the three workloads: the same code paths in well
// under a second each.
var (
	toyHypercube = &scalarWorkload{
		graph:     func() *topology.Graph { return topology.Hypercube(6) },
		eps:       1e-12,
		maxRounds: 4000,
		dmgs:      toyQR,
	}
	toyTorus = &scalarWorkload{
		graph:         func() *topology.Graph { return topology.Torus3D(4, 4, 4) },
		eps:           1e-12,
		maxRounds:     4000,
		failures:      4,
		failRounds:    [2]int{4, 40},
		observeEvery:  8,
		snapshotEvery: 32,
		dmgs:          toyQR,
	}
	toyQR = &qrWorkload{dim: 3, rows: 16, cols: 4, matrices: 2, eps: 1e-15, stall: 60, maxRounds: 4000}

	toys = map[string]workload{"hypercube": toyHypercube, "torus": toyTorus, "qr": toyQR}
)

// contract is the part of BENCHMARK.json the benchmark's output must match.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json lists no metrics")
	}
	return c
}

// checkOutput emits res and checks that the text lines name every wanted
// metric with its unit and that the last line is the JSON record with
// exactly the wanted metrics.
func checkOutput(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	var buf bytes.Buffer
	if err := emit(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rec map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := rec[k]; !ok {
			t.Errorf("JSON record lacks %q", k)
		}
	}
	if len(rec) != 4 {
		t.Errorf("JSON record has %d keys, want 4", len(rec))
	}
	var metrics map[string]metric
	if err := json.Unmarshal(rec["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(metrics), len(want))
	}
	text := strings.Join(lines[:len(lines)-1], "\n")
	for _, m := range want {
		got, ok := metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v, want unit %q", m.Name, got, m.Unit)
		}
		if !strings.Contains(text, m.Name) {
			t.Errorf("metric %s has no text line", m.Name)
		}
	}
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	c := readContract(t)
	for name, w := range toys {
		res, err := w.measure(3, time.Nanosecond)
		if err != nil {
			t.Fatalf("%s measure: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s measure: correct=%v attempted=%d failed=%d %v", name, res.Correct, res.Attempted, res.Failed, res.problems)
		}
		checkOutput(t, res, c.EndToEnd)

		res, err = w.trace(3, time.Nanosecond, newTracer())
		if err != nil {
			t.Fatalf("%s trace: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s trace: correct=%v failed=%d %v", name, res.Correct, res.Failed, res.problems)
		}
		checkOutput(t, res, c.PerLayer)
	}
}

func TestRoundsRepeatAcrossRuns(t *testing.T) {
	for name, w := range toys {
		a, err := w.measure(5, time.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.measure(5, time.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		if ra, rb := a.Metrics["rounds"].Value, b.Metrics["rounds"].Value; ra != rb || ra <= 0 {
			t.Errorf("%s: rounds %g then %g", name, ra, rb)
		}
	}
}

func TestPerturbedOracleFailsScalarCheck(t *testing.T) {
	for _, w := range []*scalarWorkload{toyHypercube, toyTorus} {
		in, err := w.inputs(7)
		if err != nil {
			t.Fatal(err)
		}
		s := w.setup(in, shards, false, nil)
		defer s.eng.Close()
		if _, err := w.solve(s, in, true, nil); err != nil {
			t.Fatalf("unperturbed check failed: %v", err)
		}
		est := s.eng.Estimates()
		if err := checkEstimates(est, in.target*(1+1e-9), w.eps); err == nil {
			t.Error("a target perturbed by 1e-9 relative passed the check")
		}
		est[len(est)/2][0] *= 1 + 1e-9
		if err := checkEstimates(est, in.target, w.eps); err == nil {
			t.Error("an estimate perturbed by 1e-9 relative passed the check")
		}
	}
}

func TestPerturbedOracleFailsQRCheck(t *testing.T) {
	mats := toyQR.inputs(7)
	v := mats[0]
	out, err := dmgs.Factorize(v, dmgs.Config{
		Topology:    topology.Hypercube(toyQR.dim),
		NewProtocol: func() gossip.Protocol { return core.NewEfficient() },
		Eps:         toyQR.eps, MaxRounds: toyQR.maxRounds, StallRounds: toyQR.stall, Batched: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkQR(v, out.Q, out.R); err != nil {
		t.Fatalf("unperturbed check failed: %v", err)
	}
	w := v.Clone()
	w.Set(3, 1, w.At(3, 1)*(1+1e-6))
	if err := checkQR(w, out.Q, out.R); err == nil {
		t.Error("a perturbed input passed the factorization check")
	}
	q := out.Q.Clone()
	q.Set(5, 2, q.At(5, 2)+1e-6)
	if err := checkQR(v, q, out.R); err == nil {
		t.Error("a perturbed Q passed the checks")
	}

	// Reductions stopped at a loose ε leave the per-node copies of R
	// apart, which the factorization check must catch.
	loose, err := dmgs.Factorize(v, dmgs.Config{
		Topology:    topology.Hypercube(toyQR.dim),
		NewProtocol: func() gossip.Protocol { return core.NewEfficient() },
		Eps:         1e-6, MaxRounds: toyQR.maxRounds, Batched: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkQR(v, loose.Q, loose.R); err == nil {
		t.Error("a factorization from reductions stopped at ε = 1e-6 passed the checks")
	}
}
