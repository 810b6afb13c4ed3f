package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcfreduce/internal/checkpoint"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// resumeBaseConfig is the kill-and-resume grid: one topology, one
// algorithm, two plans, three seeds — six trials, small enough to run
// three times in the test.
func resumeBaseConfig() SweepConfig {
	return SweepConfig{
		Topologies: []SweepTopology{{Name: "ring16", Graph: topology.Ring(16)}},
		Algorithms: []Algorithm{PCFRobust},
		Plans: []SweepPlan{
			{Name: "none"},
			{Name: "linkfail@20", Events: []fault.Event{fault.LinkFailure(20, 0, 1)}},
		},
		Trials:    3,
		RootSeed:  42,
		MaxRounds: 80,
		Record:    true,
		Workers:   1,
		Shards:    1,
	}
}

// TestSweepKillAndResume is the acceptance scenario: a sweep dies after
// two trials (simulated via the interruptAfter crash hook), one further
// trial is additionally interrupted mid-run leaving only its .ckpt
// behind, and the -resume rerun must produce JSON byte-identical to an
// uninterrupted golden run.
func TestSweepKillAndResume(t *testing.T) {
	base := resumeBaseConfig()
	golden, err := Sweep(base)
	if err != nil {
		t.Fatal(err)
	}
	goldenJSON := golden.JSON()

	dir := t.TempDir()
	crashed := base
	crashed.CheckpointDir = dir
	crashed.CheckpointEvery = 25
	crashed.interruptAfter = 2
	if _, err := Sweep(crashed); err != nil {
		t.Fatal(err)
	}
	done, err := filepath.Glob(filepath.Join(dir, "trial_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("crashed sweep left %d finished trials, want 2", len(done))
	}

	// Reconstruct what the killed worker would have left behind for the
	// trial it was executing when it died: a mid-run checkpoint at round
	// 25 for trial index 2 (plan "none", third seed) and no done-file.
	const idx = 2
	g := base.Topologies[0].Graph
	inputs := UniformInputs(g.N(), deriveSeed(base.RootSeed, inputStreamTag|0))
	e := newEngine(g, base.Algorithms[0].Protos(g.N()), inputs,
		deriveSeed(base.RootSeed, uint64(idx)), engineSpec{shards: base.Shards})
	ckptPath := filepath.Join(dir, "trial_00002.ckpt")
	e.Run(sim.RunConfig{
		MaxRounds:       40, // killed well before the full 80 rounds
		Record:          true,
		OnRound:         fault.NewPlan().OnRound,
		CheckpointEvery: crashed.CheckpointEvery,
		OnCheckpoint: func(e *sim.Engine, rs sim.RunState) {
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			if err := checkpoint.WriteFile(ckptPath, &checkpoint.Checkpoint{Snap: snap, Run: &rs}); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
		},
	})
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("mid-trial checkpoint missing: %v", err)
	}

	resumed := crashed
	resumed.interruptAfter = 0
	resumed.Resume = true
	res, err := Sweep(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.JSON(), goldenJSON) {
		t.Fatal("resumed sweep JSON differs from the uninterrupted golden run")
	}

	done, _ = filepath.Glob(filepath.Join(dir, "trial_*.json"))
	if want := len(golden.Trials); len(done) != want {
		t.Fatalf("resumed sweep left %d done-files, want %d", len(done), want)
	}
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(ckpts) != 0 {
		t.Fatalf("mid-trial checkpoints not cleaned up: %v", ckpts)
	}
}

// TestSweepResumeIdempotent: resuming a fully finished sweep reruns
// nothing (interruptAfter=1 would otherwise truncate it) and still
// reproduces the golden JSON from the done-files alone.
func TestSweepResumeIdempotent(t *testing.T) {
	base := resumeBaseConfig()
	dir := t.TempDir()
	base.CheckpointDir = dir
	first, err := Sweep(base)
	if err != nil {
		t.Fatal(err)
	}
	again := base
	again.Resume = true
	again.interruptAfter = 1 // would break the run if any trial executed
	res, err := Sweep(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.JSON(), first.JSON()) {
		t.Fatal("resume of a complete sweep changed the JSON")
	}
}

// TestSweepResumeCorruptDoneFile: an unreadable done-file is not
// trusted — the trial reruns and the result still matches golden.
func TestSweepResumeCorruptDoneFile(t *testing.T) {
	base := resumeBaseConfig()
	dir := t.TempDir()
	base.CheckpointDir = dir
	first, err := Sweep(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trial_00003.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	again := base
	again.Resume = true
	res, err := Sweep(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.JSON(), first.JSON()) {
		t.Fatal("rerun after corrupt done-file changed the JSON")
	}
}

func TestSweepResumeValidation(t *testing.T) {
	cfg := resumeBaseConfig()
	cfg.Resume = true
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "CheckpointDir") {
		t.Fatalf("Resume without CheckpointDir: err = %v", err)
	}
	cfg.CheckpointDir = t.TempDir()
	cfg.Metrics = true
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Metrics") {
		t.Fatalf("Resume with Metrics: err = %v", err)
	}
	cfg.Metrics = false
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid resume config rejected: %v", err)
	}
}
