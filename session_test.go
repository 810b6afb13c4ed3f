package pcfreduce_test

import (
	"math"
	"testing"

	"pcfreduce"
)

func TestSessionBasics(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	in := inputsFor(g)
	s, err := pcfreduce.NewSession(in, pcfreduce.PCF, pcfreduce.SessionOptions{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	if !s.StepUntil(1e-12, 3000) {
		t.Fatalf("did not converge: %.3e", s.MaxError())
	}
	if s.Rounds() == 0 {
		t.Fatal("rounds not counted")
	}
	ests := s.Estimates()
	if len(ests) != g.N() {
		t.Fatal("estimate count")
	}
	if math.Abs(ests[3]-s.Exact())/s.Exact() > 1e-11 {
		t.Fatalf("estimate %.15g vs exact %.15g", ests[3], s.Exact())
	}
}

func TestSessionLiveUpdate(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	in := inputsFor(g)
	s, err := pcfreduce.NewSession(in, pcfreduce.PCF, pcfreduce.SessionOptions{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	s.StepUntil(1e-12, 3000)
	before := s.Exact()
	s.UpdateInput(5, in[5]+16)
	if math.Abs(s.Exact()-before-1) > 1e-12 { // +16 spread over 16 nodes
		t.Fatalf("exact moved %.12g, want +1", s.Exact()-before)
	}
	if s.MaxError() < 1e-4 {
		t.Fatal("error should jump after the update")
	}
	if !s.StepUntil(1e-12, 3000) {
		t.Fatalf("did not re-converge: %.3e", s.MaxError())
	}
}

func TestSessionFaultsInteractive(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	in := inputsFor(g)
	s, err := pcfreduce.NewSession(in, pcfreduce.PCF, pcfreduce.SessionOptions{
		Topology: g,
		LossRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Crash before any mixing: the dead node takes exactly its own
	// input with it, so the survivors converge tightly to their own
	// aggregate (after mixing, PCF would instead converge near the
	// ORIGINAL aggregate — see EXP-I and DESIGN.md finding 3).
	s.CrashNode(9)
	s.Step(40)
	s.FailLink(0, 1)
	if !s.StepUntil(1e-10, 8000) {
		t.Fatalf("did not converge after interactive faults: %.3e", s.MaxError())
	}
	if !math.IsNaN(s.Estimates()[9]) {
		t.Fatal("crashed node must report NaN")
	}
	// Exact is the survivors' aggregate.
	var want float64
	for i, x := range in {
		if i != 9 {
			want += x
		}
	}
	want /= float64(len(in) - 1)
	if math.Abs(s.Exact()-want) > 1e-12 {
		t.Fatalf("exact = %.15g, want survivors' %.15g", s.Exact(), want)
	}
}

// Crashing after mixing: the survivors reach consensus near the
// ORIGINAL aggregate (PCF's surviving-mass semantics), offset from the
// survivors'-only aggregate by a first-order amount.
func TestSessionCrashAfterMixing(t *testing.T) {
	g := pcfreduce.Hypercube(4)
	in := inputsFor(g)
	var original float64
	for _, x := range in {
		original += x
	}
	original /= float64(len(in))
	s, err := pcfreduce.NewSession(in, pcfreduce.PCF, pcfreduce.SessionOptions{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	s.StepUntil(1e-12, 3000) // converge before the crash
	s.CrashNode(9)
	s.Step(2000)
	for i, est := range s.Estimates() {
		if i == 9 {
			continue
		}
		if math.Abs(est-original)/original > 1e-9 {
			t.Fatalf("node %d: %.12g, want near original %.12g", i, est, original)
		}
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := pcfreduce.NewSession([]float64{1}, pcfreduce.PCF, pcfreduce.SessionOptions{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	g := pcfreduce.Ring(4)
	if _, err := pcfreduce.NewSession([]float64{1}, pcfreduce.PCF, pcfreduce.SessionOptions{Topology: g}); err == nil {
		t.Fatal("wrong input length accepted")
	}
	rejectsInvalid(t, "NewSession", true, func(algo pcfreduce.Algorithm, opt pcfreduce.ReduceOptions) error {
		_, err := pcfreduce.NewSession([]float64{1, 2, 3, 4}, algo, pcfreduce.SessionOptions{
			Topology: opt.Topology, Aggregate: opt.Aggregate, Seed: opt.Seed, LossRate: opt.LossRate,
		})
		return err
	})
}
