package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"pcfreduce/internal/fault"
	"pcfreduce/internal/topology"
)

// TestShardedRunsCloseEngines: every sharded engine a run builds is
// closed when the run ends, so its pool's workers are gone without
// waiting for the GC cleanup that reclaims dropped engines — the
// collector is off while the runs execute.
func TestShardedRunsCloseEngines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
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
	for _, run := range []struct {
		name string
		f    func() error
	}{
		{"Sweep", func() error {
			cfg := smallSweep(2, false)
			cfg.Shards = 2
			_, err := Sweep(cfg)
			return err
		}},
		{"RecoveryComparison", func() error {
			_, err := RecoveryComparison(RecoveryConfig{
				Graph:      topology.Hypercube(5),
				Algorithms: []Algorithm{PCF},
				MaxRounds:  150,
				Shards:     2,
			})
			return err
		}},
		{"Churn", func() error {
			Churn(ChurnConfig{
				Algorithm: PCF,
				Graph:     topology.Hypercube(5),
				Opts:      fault.ChurnOptions{Every: 10},
				Rounds:    100,
				Seed:      7,
				Shards:    2,
			})
			return nil
		}},
	} {
		if err := run.f(); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines 5 s after the run, want ≤ %d: an engine was left open",
					run.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
