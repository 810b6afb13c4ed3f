package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"pcfreduce/internal/fault"
	"pcfreduce/internal/topology"
)

// mustSweep runs a sweep that the test expects to be validly configured.
func mustSweep(t *testing.T, cfg SweepConfig) SweepResult {
	t.Helper()
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	return res
}

func smallSweep(workers int, record bool) SweepConfig {
	return SweepConfig{
		Topologies: []SweepTopology{
			{Name: "ring16", Graph: topology.Ring(16)},
			{Name: "hypercube4", Graph: topology.Hypercube(4)},
		},
		Algorithms: []Algorithm{PushFlow, PCF},
		Plans: []SweepPlan{
			{Name: "none"},
			{Name: "linkfail@20", Events: []fault.Event{fault.LinkFailure(20, 0, 1)}},
		},
		Trials:    2,
		RootSeed:  17,
		MaxRounds: 60,
		Record:    record,
		Workers:   workers,
	}
}

// The tentpole determinism guarantee: a sweep's JSON output is byte
// identical no matter how many workers execute it.
func TestSweepParallelMatchesSerial(t *testing.T) {
	serial := mustSweep(t, smallSweep(1, true)).JSON()
	for _, workers := range []int{2, 8} {
		parallel := mustSweep(t, smallSweep(workers, true)).JSON()
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("workers=%d sweep output differs from serial output", workers)
		}
	}
}

// Repeated sweeps with the same config are byte-identical (engine-cache
// reuse across trials leaks no state), and different root seeds change
// the results.
func TestSweepReproducibleAndSeeded(t *testing.T) {
	a := mustSweep(t, smallSweep(4, false))
	b := mustSweep(t, smallSweep(4, false))
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatal("identical configs produced different sweeps")
	}
	cfg := smallSweep(4, false)
	cfg.RootSeed = 99
	c := mustSweep(t, cfg)
	same := true
	for i := range a.Trials {
		if a.Trials[i].FinalMax != c.Trials[i].FinalMax {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different root seeds produced identical trial outcomes")
	}
}

// The flattened result order is the documented grid order and each trial
// is labeled with the cell that produced it.
func TestSweepGridOrder(t *testing.T) {
	cfg := smallSweep(3, false)
	res := mustSweep(t, cfg)
	want := len(cfg.Topologies) * len(cfg.Algorithms) * len(cfg.Plans) * cfg.Trials
	if len(res.Trials) != want {
		t.Fatalf("got %d trials, want %d", len(res.Trials), want)
	}
	idx := 0
	for _, tp := range cfg.Topologies {
		for _, al := range cfg.Algorithms {
			for _, pl := range cfg.Plans {
				for trial := 0; trial < cfg.Trials; trial++ {
					tr := res.Trials[idx]
					if tr.Topology != tp.Name || tr.Algorithm != al.Name || tr.Plan != pl.Name || tr.Trial != trial {
						t.Fatalf("trial %d is %s/%s/%s/%d, want %s/%s/%s/%d",
							idx, tr.Topology, tr.Algorithm, tr.Plan, tr.Trial,
							tp.Name, al.Name, pl.Name, trial)
					}
					if tr.Rounds == 0 || tr.FinalMax < 0 {
						t.Fatalf("trial %d looks unrun: %+v", idx, tr)
					}
					idx++
				}
			}
		}
	}
}

// A sharded sweep is byte-identical across both worker counts and shard
// counts — shards only change how a round executes, never what it
// computes — but differs from the Shards=0 sequential schedule.
func TestSweepShardedDeterministic(t *testing.T) {
	base := smallSweep(1, true)
	base.Shards = 1
	ref := mustSweep(t, base).JSON()
	for _, shards := range []int{2, 3} {
		cfg := smallSweep(0, true)
		cfg.Shards = shards
		if got := mustSweep(t, cfg).JSON(); !bytes.Equal(ref, got) {
			t.Fatalf("shards=%d sweep output differs from shards=1 output", shards)
		}
	}
	legacy := mustSweep(t, smallSweep(1, true)).JSON()
	if bytes.Equal(ref, legacy) {
		t.Fatal("sharded and sequential schedules unexpectedly coincide")
	}
}

// The cross-path differential at sweep granularity: every combination
// of worker-pool size and shard count produces byte-identical sweep
// JSON. GOMAXPROCS is raised so the explicit workers × shards grids pass
// the nested-parallelism budget and the worker pools genuinely fan out.
func TestSweepShardLayoutInvariance(t *testing.T) {
	old := runtime.GOMAXPROCS(12)
	defer runtime.GOMAXPROCS(old)
	base := smallSweep(1, true)
	base.Shards = 1
	ref := mustSweep(t, base).JSON()
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{2, 3} {
			cfg := smallSweep(workers, true)
			cfg.Shards = shards
			if got := mustSweep(t, cfg).JSON(); !bytes.Equal(ref, got) {
				t.Fatalf("workers=%d shards=%d differs from the sequential sharded reference", workers, shards)
			}
		}
	}
}

// Explicitly oversubscribed nested parallelism is rejected with a
// descriptive error instead of silently thrashing the scheduler.
func TestSweepOversubscriptionRejected(t *testing.T) {
	cfg := smallSweep(runtime.GOMAXPROCS(0), false)
	cfg.Shards = 2
	_, err := Sweep(cfg)
	if err == nil {
		t.Fatal("oversubscribed workers×shards sweep did not error")
	}
	if !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("error does not explain the budget: %v", err)
	}
	cfg.Workers = 0 // automatic budget: never errors
	if _, err := Sweep(cfg); err != nil {
		t.Fatalf("auto-budgeted sweep rejected: %v", err)
	}
	if _, err := Sweep(SweepConfig{
		Topologies: []SweepTopology{{Name: "ring8", Graph: topology.Ring(8)}},
		Algorithms: []Algorithm{PCF},
		Shards:     -1,
	}); err == nil {
		t.Fatal("negative Shards accepted")
	}
}
