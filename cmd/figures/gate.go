package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"runtime"

	"pcfreduce/internal/experiments"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

// gateTolerance is the allowed ns/op regression of the sharded PCF
// round against the recorded baseline. The metrics layer must be free
// when disabled (≤1% by design; see DESIGN.md), so a 5% gate leaves
// room for CI scheduling noise while still catching any real cost
// creeping onto the hot path.
const gateTolerance = 1.05

// snapshotGateTolerance is the ns/op budget for the million-node
// snapshot+encode cost. The operation is memory-bandwidth-bound, so the
// sequential-PCF compute calibration is only applied as leniency (slower
// machine ⇒ bigger budget, never smaller) and the tolerance is a loose
// 2× — GC pressure from the ~400 MB working set makes the timing far
// noisier than the hot-path round, while the regressions the gate
// exists to catch (per-element boxing, reflection, an allocation per
// node) cost 5–10×. The byte-size check below is the tight one: the
// encoding is deterministic, so any growth is a real format change.
const snapshotGateTolerance = 2.0

// kValueGateFloor is the minimum batched speedup (k·scalar_ns /
// batched_ns) the largest recorded k row must reproduce on the gate
// machine. The ratio compares two measurements taken on the SAME host,
// so unlike raw ns it is machine-independent: a width-16 round doing
// 16 reductions' worth of work must beat 16 separate rounds by at
// least this factor on any hardware, or per-value overhead has crept
// into the batched path.
const kValueGateFloor = 1.5

// kValueDriftTolerance bounds how far the measured batched speedup may
// fall below the recorded one before the gate fails (ratio-of-ratios;
// loose because best-of-3 ratios still carry scheduling noise).
const kValueDriftTolerance = 1.4

// phase2GateFloor is the minimum delivery speedup (serial_ns /
// parallel_ns, both sides measured on the gate host) the re-measured
// phase-2 row must reach. Like the k-value floor it is a same-host
// ratio and therefore machine-independent — but unlike batching, the
// parallel win depends on cores: on a single-core host the engine runs
// delivery inline either way and the honest ratio is ~1.0. The floor is
// therefore set just below parity; its job is to catch the parallel
// path growing overhead that makes it *slower* than inline delivery
// (WithSerialDelivery), not to demand scaling the hardware can't give.
const phase2GateFloor = 0.85

// phase2DriftTolerance bounds how far the measured delivery speedup may
// fall below the recorded one (same ratio-of-ratios role and looseness
// as kValueDriftTolerance). On a multicore recorder this is what turns
// the floor into a real scaling gate: a recorded 2.8x row gates at 2x.
const phase2DriftTolerance = 1.4

// timingOffTolerance bounds the sharded round with a timing-off
// recorder attached against the nil-recorder round from the same gate
// run. The flight recorder's contract is that its single e.flight nil
// check costs nothing when timing is off, so the only remaining cost is
// the counter banks — a few percent; the budget is a loose same-host
// ratio because both sides are single measurements. Allocations are the
// hard edge: the timing-off round must stay at the recorded allocs/op.
const timingOffTolerance = 1.4

// runBenchGate is the CI regression gate: it re-measures the largest
// n-scaling point of the recorded baseline (the sharded PCF round at
// n = 2^17, metrics disabled — the default engine state) and exits
// non-zero when ns/op regresses more than 5% or allocs/op exceed the
// recorded count.
//
// Gate machines differ from the recording machine, so the baseline is
// first normalized by machine speed: the sequential PCF round at the
// same n is measured alongside and the recorded sharded ns/op is scaled
// by measured_seq / recorded_seq before comparing. That ratio captures
// single-core speed; extra cores only make the measured sharded round
// faster, so the normalization errs toward leniency on big machines and
// never produces a false failure from hardware alone.
func runBenchGate(path string, seed int64) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		fatal(fmt.Errorf("parse %s: %w", path, err))
	}
	var base *scalingEntry
	for i := range rep.NScaling {
		if base == nil || rep.NScaling[i].N > base.N {
			base = &rep.NScaling[i]
		}
	}
	if base == nil {
		fatal(fmt.Errorf("%s has no n_scaling series to gate against", path))
	}
	if base.N&(base.N-1) != 0 {
		fatal(fmt.Errorf("%s: n_scaling n=%d is not a hypercube size", path, base.N))
	}
	dim := bits.Len(uint(base.N)) - 1
	g := topology.Hypercube(dim)
	n := g.N()
	in := experiments.UniformInputs(n, seed)

	seq := benchRound(sim.NewScalar(g, experiments.PCF.Protos(n), in, gossip.Average, seed))
	shd := benchRound(sim.NewScalar(g, experiments.PCF.Protos(n), in, gossip.Average, seed,
		sim.WithShards(base.Shards)))

	scale := float64(seq.NsPerOp()) / base.SequentialNsPerOp
	allowed := base.ShardedNsPerOp * scale * gateTolerance
	measured := float64(shd.NsPerOp())
	fmt.Printf("bench-gate %s n=%d shards=%d (metrics disabled)\n", g.Name(), n, base.Shards)
	// The sequential calibration captures single-core speed only. When
	// the baseline was recorded on more usable cores than this host has,
	// its sharded round genuinely ran in parallel and ours cannot; widen
	// the budget by the lost parallel-slot ratio (leniency only — extra
	// cores on the gate machine never tighten the gate).
	if base.GoMaxProcs > 0 {
		recordedSlots := min(base.GoMaxProcs, base.Shards)
		gateSlots := min(runtime.GOMAXPROCS(0), base.Shards)
		if gateSlots < recordedSlots {
			allowed *= float64(recordedSlots) / float64(gateSlots)
			fmt.Printf("  multicore leniency: baseline recorded with %d shard slots, gate host has %d — budget ×%.2f\n",
				recordedSlots, gateSlots, float64(recordedSlots)/float64(gateSlots))
		}
	}
	fmt.Printf("  sequential calibration: measured %.0f ns/op vs recorded %.0f (machine scale %.3f)\n",
		float64(seq.NsPerOp()), base.SequentialNsPerOp, scale)
	fmt.Printf("  sharded round: measured %.0f ns/op, allowed %.0f (recorded %.0f × scale × %.2f)\n",
		measured, allowed, base.ShardedNsPerOp, gateTolerance)
	fmt.Printf("  allocs/op: measured %d, recorded %d\n", shd.AllocsPerOp(), base.ShardedAllocsOp)

	failed := false
	if measured > allowed {
		fmt.Printf("FAIL: sharded PCF round regressed %.1f%% over the normalized baseline (gate: %.0f%%)\n",
			100*(measured/(base.ShardedNsPerOp*scale)-1), 100*(gateTolerance-1))
		failed = true
	}
	if shd.AllocsPerOp() > base.ShardedAllocsOp {
		fmt.Printf("FAIL: sharded PCF round allocates %d/op, baseline %d/op\n",
			shd.AllocsPerOp(), base.ShardedAllocsOp)
		failed = true
	}
	// Flight-recorder zero-overhead gate: the same sharded round with a
	// recorder attached but timing OFF (the default observation state)
	// must match the nil-recorder round just measured — same allocs/op,
	// ns/op within a loose same-host ratio. This is the hot path every
	// -metrics run takes, so a regression here is a regression for every
	// observed experiment.
	offRec := metrics.New(metrics.Config{Shards: base.Shards, Interval: 1 << 30})
	offEng := sim.NewScalar(g, experiments.PCF.Protos(n), in, gossip.Average, seed,
		sim.WithShards(base.Shards))
	offEng.SetMetrics(offRec)
	off := benchRound(offEng)
	offAllowed := measured * timingOffTolerance
	maxOffAllocs := max(base.ShardedAllocsOp, 1)
	fmt.Printf("  timing-off recorder: measured %.0f ns/op (nil-recorder %.0f, budget ×%.2f), %d allocs/op (max %d)\n",
		float64(off.NsPerOp()), measured, timingOffTolerance, off.AllocsPerOp(), maxOffAllocs)
	if float64(off.NsPerOp()) > offAllowed {
		fmt.Printf("FAIL: sharded round with a timing-off recorder costs %.0f ns/op, nil-recorder round %.0f (budget ×%.2f)\n",
			float64(off.NsPerOp()), measured, timingOffTolerance)
		failed = true
	}
	if off.AllocsPerOp() > maxOffAllocs {
		fmt.Printf("FAIL: sharded round with a timing-off recorder allocates %d/op, max %d\n",
			off.AllocsPerOp(), maxOffAllocs)
		failed = true
	}
	if sc := rep.SnapshotCost; sc != nil {
		m := measureSnapshotCost(seed, sc.Shards)
		recorded := sc.SnapshotNsPerOp + sc.EncodeNsPerOp
		measured := m.SnapshotNsPerOp + m.EncodeNsPerOp
		memScale := scale
		if memScale < 1 {
			memScale = 1
		}
		allowedNs := recorded * memScale * snapshotGateTolerance
		fmt.Printf("  snapshot cost %s n=%d: measured %.1f ms (Snapshot %.1f + Encode %.1f), allowed %.1f ms\n",
			m.Topology, m.N, measured/1e6, m.SnapshotNsPerOp/1e6, m.EncodeNsPerOp/1e6, allowedNs/1e6)
		fmt.Printf("  snapshot size: measured %d bytes (%.1f B/node), recorded %d\n",
			m.EncodedBytes, m.BytesPerNode, sc.EncodedBytes)
		if measured > allowedNs {
			fmt.Printf("FAIL: million-node snapshot cost regressed %.1f%% over the normalized baseline (gate: %.0f%%)\n",
				100*(measured/(recorded*memScale)-1), 100*(snapshotGateTolerance-1))
			failed = true
		}
		if float64(m.EncodedBytes) > float64(sc.EncodedBytes)*gateTolerance {
			fmt.Printf("FAIL: encoded snapshot grew to %d bytes, baseline %d (gate: %.0f%%)\n",
				m.EncodedBytes, sc.EncodedBytes, 100*(gateTolerance-1))
			failed = true
		}
	}
	// k-value batching gate: re-measure the largest recorded k and hold
	// the batched speedup to max(floor, recorded/drift). Both sides of
	// the ratio come from this host, so no machine normalization is
	// needed or applied.
	var kv *kValueEntry
	for i := range rep.KValueBatching {
		if kv == nil || rep.KValueBatching[i].K > kv.K {
			kv = &rep.KValueBatching[i]
		}
	}
	if kv != nil && kv.K > 1 {
		if kv.N&(kv.N-1) != 0 {
			fatal(fmt.Errorf("%s: k_value_batching n=%d is not a hypercube size", path, kv.N))
		}
		kg := topology.Hypercube(bits.Len(uint(kv.N)) - 1)
		scalarNs := measureKRound(kg, 1, seed)
		batchedNs := measureKRound(kg, kv.K, seed)
		speedup := float64(kv.K) * scalarNs / batchedNs
		floor := kValueGateFloor
		if rec := kv.BatchedSpeedup / kValueDriftTolerance; rec > floor {
			floor = rec
		}
		fmt.Printf("  k-value batching k=%d: measured %.2fx (scalar %.0f ns, batched %.0f ns), floor %.2fx (recorded %.2fx)\n",
			kv.K, speedup, scalarNs, batchedNs, floor, kv.BatchedSpeedup)
		if speedup < floor {
			fmt.Printf("FAIL: width-%d batched round is only %.2fx faster than %d scalar rounds (floor %.2fx)\n",
				kv.K, speedup, kv.K, floor)
			failed = true
		}
	}

	// Phase-2 delivery gate: re-measure the smallest recorded row (the
	// 2^15 hypercube — the 2^20 torus is too costly to re-run per CI
	// push) and hold the serial/parallel delivery ratio to
	// max(floor, recorded/drift), with multicore leniency: when the
	// recording host had more shard slots than this one, only the
	// absolute floor applies, because the recorded parallel speedup is
	// not reproducible here by construction.
	if len(rep.Phase2Delivery) > 0 {
		p2 := &rep.Phase2Delivery[0]
		for i := range rep.Phase2Delivery {
			if rep.Phase2Delivery[i].N < p2.N {
				p2 = &rep.Phase2Delivery[i]
			}
		}
		pg := phase2Families()[0]
		if p2.Topology != pg.Name() || p2.N != pg.N() {
			fatal(fmt.Errorf("%s: smallest phase2_delivery row is %s/n=%d, gate measures %s/n=%d — re-record with -bench-phase2",
				path, p2.Topology, p2.N, pg.Name(), pg.N()))
		}
		m := measurePhase2Row(pg, seed, p2.Shards)
		floor := phase2GateFloor
		recordedSlots := min(p2.GoMaxProcs, p2.Shards)
		gateSlots := min(runtime.GOMAXPROCS(0), p2.Shards)
		if gateSlots >= recordedSlots {
			if rec := p2.DeliverySpeedup / phase2DriftTolerance; rec > floor {
				floor = rec
			}
		}
		fmt.Printf("  phase-2 delivery %s n=%d shards=%d: measured %.2fx (serial %.0f ns, parallel %.0f ns), floor %.2fx (recorded %.2fx)\n",
			m.Topology, m.N, m.Shards, m.DeliverySpeedup, m.SerialNsPerOp, m.ParallelNsPerOp, floor, p2.DeliverySpeedup)
		if m.DeliverySpeedup < floor {
			fmt.Printf("FAIL: parallel phase-2 delivery is only %.2fx inline delivery (floor %.2fx)\n",
				m.DeliverySpeedup, floor)
			failed = true
		}
		if m.ParallelAllocsOp > p2.ParallelAllocsOp {
			fmt.Printf("FAIL: parallel-delivery round allocates %d/op, baseline %d/op\n",
				m.ParallelAllocsOp, p2.ParallelAllocsOp)
			failed = true
		}
	}

	// dmGS batching gate: the schedule is seed-deterministic, so the
	// reduction and round counts must reproduce the baseline bitwise,
	// and the batched schedule must stay strictly cheaper in rounds.
	if db := rep.DmgsBatching; db != nil {
		m := measureDmgsBatching(db.Seed)
		fmt.Printf("  dmgs batching %s m=%d: legacy %d reductions/%d rounds, batched %d/%d (%.2fx wall clock)\n",
			m.Topology, m.M, m.LegacyReductions, m.LegacyTotalRounds,
			m.BatchedReductions, m.BatchedTotalRounds, m.WallClockSpeedup)
		if m.LegacyReductions != db.LegacyReductions || m.BatchedReductions != db.BatchedReductions ||
			m.LegacyTotalRounds != db.LegacyTotalRounds || m.BatchedTotalRounds != db.BatchedTotalRounds {
			fmt.Printf("FAIL: dmGS schedule drifted from the recorded deterministic counts (recorded legacy %d/%d, batched %d/%d)\n",
				db.LegacyReductions, db.LegacyTotalRounds, db.BatchedReductions, db.BatchedTotalRounds)
			failed = true
		}
		if m.BatchedTotalRounds >= m.LegacyTotalRounds {
			fmt.Printf("FAIL: batched dmGS used %d gossip rounds, not fewer than the classic schedule's %d\n",
				m.BatchedTotalRounds, m.LegacyTotalRounds)
			failed = true
		}
	}

	// Partition-quality gate: both layouts are deterministic, so the
	// recorded table must reproduce exactly, and the cache-aware cut
	// may never exceed the contiguous one.
	if len(rep.PartitionQuality) > 0 {
		rows := partitionQualityRows(rep.PartitionQuality[0].Shards)
		if len(rows) != len(rep.PartitionQuality) {
			fmt.Printf("FAIL: partition_quality has %d recorded rows, gate derives %d\n",
				len(rep.PartitionQuality), len(rows))
			failed = true
		} else {
			for i, row := range rows {
				if row != rep.PartitionQuality[i] {
					fmt.Printf("FAIL: partition row %s/%d drifted: recorded %+v, derived %+v\n",
						row.Topology, row.Shards, rep.PartitionQuality[i], row)
					failed = true
				}
				if row.CacheAwareCut > row.ContiguousCut {
					fmt.Printf("FAIL: cache-aware layout cuts %d edges on %s, contiguous cuts %d\n",
						row.CacheAwareCut, row.Topology, row.ContiguousCut)
					failed = true
				}
			}
		}
		fmt.Printf("  partition quality: %d rows reproduced deterministically\n", len(rows))
	}

	if failed {
		os.Exit(1)
	}
	fmt.Println("bench-gate OK")
}
