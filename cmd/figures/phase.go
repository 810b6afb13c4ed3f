package main

// Flight-recorder consumers: -phase-report cross-references the
// partition's static traffic prediction against the phase timings the
// flight recorder actually measured, and -check-timeline validates a
// gossipsim -timeline export structurally (the CI smoke's half of the
// Perfetto story — see EXPERIMENTS.md for the interactive half).

import (
	"encoding/json"
	"fmt"
	"os"

	"pcfreduce/internal/experiments"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
	"pcfreduce/internal/trace"
)

// phaseReportRounds is the length of each -phase-report run: long enough
// for per-shard delivery-time shares to stabilize, short enough to stay
// interactive.
const phaseReportRounds = 200

// runPhaseReport runs a timing-enabled sharded PCF reduction on two
// layout-sensitive families and prints, per destination shard, the
// partition's predicted share of phase-2 delivery load (the incoming
// column of topology.Partition.TrafficMatrix, diagonal included — every
// staged message crosses a bucket, intra-shard ones too) against the
// share of delivery time the flight recorder measured, plus each
// fan-out's wall clock, the caller's barrier wait (the straggler
// signal) and pool utilization. A skew well above 1 marks a shard whose
// delivery is more expensive than its traffic predicts — a straggler
// the static partitioner cannot see.
func runPhaseReport(emit func(*trace.Table), seed int64, shards int) {
	for _, g := range []*topology.Graph{
		topology.Hypercube(10),     // contiguous blocks are subcubes; CacheAware falls back
		topology.Torus2D(128, 128), // BFS layout beats contiguous; cross-traffic matters
	} {
		pt := topology.CacheAware(g, shards)
		p := len(pt.Shards)
		rec := metrics.New(metrics.Config{Shards: p, Interval: 1 << 30, Timing: true})
		n := g.N()
		e := sim.NewScalar(g, experiments.PCF.Protos(n), experiments.UniformInputs(n, seed),
			gossip.Average, seed, sim.WithPartition(pt))
		e.SetMetrics(rec)
		for r := 0; r < phaseReportRounds; r++ {
			e.Step()
			e.Errors()
		}
		e.Close()

		tm := pt.TrafficMatrix(g)
		pred := make([]int, p)
		predTotal := 0
		for s := range tm {
			for d, c := range tm[s] {
				pred[d] += c
				predTotal += c
			}
		}
		meas := make([]uint64, p)
		var measTotal uint64
		for d := 0; d < p; d++ {
			meas[d] = rec.Timing(d).Hist(metrics.PhaseDeliver).SumNs
			measTotal += meas[d]
		}
		t := trace.NewTable(
			fmt.Sprintf("phase report — %s, %d shards (%s layout), %d rounds: traffic-predicted vs measured phase-2 delivery load",
				g.Name(), p, pt.Stats.Strategy, phaseReportRounds),
			"shard", "nodes", "in-traffic", "predicted share", "deliver ms", "measured share", "skew")
		for d := 0; d < p; d++ {
			predShare := float64(pred[d]) / float64(predTotal)
			measShare := float64(meas[d]) / float64(measTotal)
			skew := ""
			if predShare > 0 {
				skew = fmt.Sprintf("%.2f", measShare/predShare)
			}
			t.AddRow(d, len(pt.Shards[d]), pred[d],
				fmt.Sprintf("%.1f%%", 100*predShare),
				float64(meas[d])/1e6,
				fmt.Sprintf("%.1f%%", 100*measShare),
				skew)
		}
		emit(t)

		merged := rec.MergedTiming()
		t2 := trace.NewTable(
			fmt.Sprintf("phase report — %s: fan-out wall clock, caller barrier wait, utilization (%d workers)",
				g.Name(), p),
			"fan-out", "task ms", "wall ms", "barrier-wait ms", "utilization")
		for _, f := range []struct {
			name                string
			task, wall, barrier metrics.Phase
		}{
			{"activate", metrics.PhaseActivate, metrics.PhaseWallActivate, metrics.PhaseBarrierActivate},
			{"deliver", metrics.PhaseDeliver, metrics.PhaseWallDeliver, metrics.PhaseBarrierDeliver},
			{"errors", metrics.PhaseErrors, metrics.PhaseWallErrors, metrics.PhaseBarrierErrors},
		} {
			task := merged.Hist(f.task).SumNs
			wall := merged.Hist(f.wall).SumNs
			barrier := merged.Hist(f.barrier).SumNs
			util := ""
			if wall > 0 {
				util = fmt.Sprintf("%.0f%%", 100*float64(task)/(float64(p)*float64(wall)))
			}
			t2.AddRow(f.name, float64(task)/1e6, float64(wall)/1e6, float64(barrier)/1e6, util)
		}
		emit(t2)
	}
}

// traceEvent mirrors the Chrome trace-event rows metrics.TimelineWriter
// emits, for structural validation.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

// runCheckTimeline validates a gossipsim -timeline export: the JSON must
// parse, every slice and instant must sit on a named track, the core
// round phases must each have recorded slices, and at least one instant
// event (fault injection, churn op, snapshot or eviction) must be
// present — the CI smoke always runs a faulted scenario, so an empty
// events track means the ring→timeline wiring broke. Exits non-zero on
// any violation.
func runCheckTimeline(path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		fatal(fmt.Errorf("check-timeline %s: %w", path, err))
	}
	failed := false
	fail := func(format string, args ...any) {
		fmt.Printf("FAIL: "+format+"\n", args...)
		failed = true
	}
	if len(doc.TraceEvents) == 0 {
		fail("%s has no traceEvents", path)
	}
	tracks := map[int]string{}
	slices := map[string]int{}
	instants := map[string]int{}
	badRows := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if name, ok := ev.Args["name"].(string); ok && ev.Name == "thread_name" {
				tracks[ev.Tid] = name
			}
		case "X":
			slices[ev.Name]++
			if ev.Ts < 0 || ev.Dur < 0 || ev.Args["round"] == nil || ev.Args["shard"] == nil {
				badRows++
			}
			if _, ok := tracks[ev.Tid]; !ok {
				badRows++
			}
		case "i":
			instants[ev.Name]++
			if ev.S != "g" || ev.Args["round"] == nil {
				badRows++
			}
			if _, ok := tracks[ev.Tid]; !ok {
				badRows++
			}
		default:
			badRows++
		}
	}
	if badRows > 0 {
		fail("%d malformed rows (unnamed track, unknown ph, negative ts/dur or missing args)", badRows)
	}
	for _, phase := range []string{"activate", "deliver", "round"} {
		if slices[phase] == 0 {
			fail("no %q slices — the flight recorder did not time that phase", phase)
		}
	}
	totalSlices, totalInstants := 0, 0
	for _, c := range slices {
		totalSlices += c
	}
	for _, c := range instants {
		totalInstants += c
	}
	if totalInstants == 0 {
		fail("no instant events — faulted runs must export their fault/churn/snapshot ring")
	}
	fmt.Printf("check-timeline %s: %d tracks, %d slices over %d phases, %d instants over %d kinds\n",
		path, len(tracks), totalSlices, len(slices), totalInstants, len(instants))
	for name, c := range instants {
		fmt.Printf("  instant %-20s %d\n", name, c)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("check-timeline OK")
}
