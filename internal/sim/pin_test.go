package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pcfreduce/internal/core"
	"pcfreduce/internal/detect"
	"pcfreduce/internal/fault"
	"pcfreduce/internal/flowupdate"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/metrics"
	"pcfreduce/internal/pushflow"
	"pcfreduce/internal/pushsum"
	"pcfreduce/internal/sim"
	"pcfreduce/internal/topology"
)

var updateRoundPin = flag.Bool("update-pin", false, "rewrite testdata/round_pin.json from the current engine")

const roundPinPath = "testdata/round_pin.json"

// roundPin is the pinned outcome of one scenario run: digests of every
// node's protocol SaveState stream and of the final error vector, plus
// the detector statistics, the message counters and how often the
// interceptor duplicated or reordered. The free-list counters are left
// out — they describe pool reuse, not the run.
type roundPin struct {
	Round    int               `json:"round"`
	Injected int               `json:"injected"`
	State    string            `json:"state_sha256"`
	Errors   string            `json:"errors_sha256"`
	Detector sim.DetectorStats `json:"detector"`
	Counters map[string]uint64 `json:"counters"`
}

// pinScenario is one seeded run: an interceptor or detector plus the
// shared fault and churn schedule and any extra events, ended by a
// Drain. A dense scenario runs on complete(40) under densePinPlan
// instead of randreg(32,3).
type pinScenario struct {
	name   string
	detect bool
	dense  bool
	ic     func() sim.Interceptor
	extra  []fault.Event
}

var pinScenarios = []pinScenario{
	{name: "detector-outage", detect: true},
	{name: "duplicate", ic: func() sim.Interceptor { return fault.NewDuplicate(0.2, 3) }},
	{name: "reorder", ic: func() sim.Interceptor { return fault.NewReorder(0.2, 5) }},
	{name: "dense-detector-churn", detect: true, dense: true},
	// Nodes 4 and 11 hang for 6 and 8 rounds while their neighbours keep
	// sending, so messages queue past the round after they were sent.
	{name: "hang-resume", extra: append(fault.NodeOutage(25, 31, 4), fault.NodeOutage(26, 34, 11)...)},
	// Bounded flips mutate the in-flight message in place.
	{name: "bitflip", ic: func() sim.Interceptor { return fault.NewBoundedBitFlip(0.05, 9) }},
}

var pinProtocols = []struct {
	name string
	mk   func() gossip.Protocol
}{
	{"pf", func() gossip.Protocol { return pushflow.New() }},
	{"pcf-robust", func() gossip.Protocol { return core.NewRobust() }},
	{"fu", func() gossip.Protocol { return flowupdate.New() }},
	{"pcf-efficient", func() gossip.Protocol { return core.NewEfficient() }},
	{"push-sum", func() gossip.Protocol { return pushsum.New() }},
}

// pinPlan is the schedule every scenario shares on randreg(32,3) with
// seed 1, whose two-shard cache-aware partition is not contiguous (so
// delivery, the error scan and event flushing take the k-way merge
// path): node 32 joins wired to 4, 17 and 26, node 30 leaves, the
// cross-shard link 5–9 fails with flush and node 29 crashes with
// notification. The detector scenario adds a silent outage of the
// cross-shard link 1–2 that heals.
func pinPlan(detector bool) *fault.Plan {
	p := fault.NewPlan(
		fault.NodeJoin(20, 32, 2.5, 4, 17, 26),
		fault.NodeLeave(50, 30),
		fault.LinkFailure(60, 5, 9),
		fault.NodeCrash(70, 29),
	)
	if detector {
		p.Add(fault.LinkOutage(10, 40, 1, 2)...)
	}
	return p
}

// densePinPlan is the schedule of the dense scenario on complete(40),
// where every node has more than 32 neighbours and so looks its edges
// up through the id map: node 40 joins wired to nodes 0–32 (33
// neighbours), a silent outage of link 1–2 heals, edge 35–36 is
// rewired to 35–40 and then recreated, node 38 leaves, link 5–9 fails
// and node 29 crashes.
func densePinPlan() *fault.Plan {
	peers := make([]int, 33)
	for i := range peers {
		peers[i] = i
	}
	p := fault.NewPlan(
		fault.NodeJoin(10, 40, 2.5, peers...),
		fault.EdgeRewire(30, 35, 36, 40),
		fault.EdgeRewire(40, 35, 40, 36),
		fault.NodeLeave(50, 38),
		fault.LinkFailure(60, 5, 9),
		fault.NodeCrash(70, 29),
	)
	p.Add(fault.LinkOutage(15, 45, 1, 2)...)
	return p
}

func runPinScenario(t *testing.T, sc pinScenario, mk func() gossip.Protocol, sharded bool) roundPin {
	t.Helper()
	g := topology.RandomRegular(32, 3, 1)
	plan := pinPlan(sc.detect)
	if sc.dense {
		g, plan = topology.Complete(40), densePinPlan()
	}
	plan.Add(sc.extra...)
	n := g.N()
	protos := make([]gossip.Protocol, n)
	inputs := make([]float64, n)
	for i := range protos {
		protos[i] = mk()
		inputs[i] = float64(7*i%17) + 0.375
	}
	opts := []sim.EngineOption{sim.WithJoinFactory(mk)}
	if sharded {
		pt := topology.CacheAware(g, 2)
		if !sc.dense && pt.Stats.Strategy != "bfs" {
			t.Fatalf("cache-aware layout fell back to %s", pt.Stats.Strategy)
		}
		opts = append(opts, sim.WithPartition(pt))
	}
	if sc.detect {
		opts = append(opts, sim.WithDetector(detect.Config{Timeout: 12}))
	}
	e := sim.NewScalar(g, protos, inputs, gossip.Average, 17, opts...)
	defer e.Close()
	rec := metrics.New(metrics.Config{Interval: 1 << 20})
	e.SetMetrics(rec)
	var ic sim.Interceptor
	if sc.ic != nil {
		ic = sc.ic()
		e.SetInterceptor(ic)
	}
	for r := 0; r < 120; r++ {
		plan.OnRound(e, e.Round())
		e.Step()
		if err := e.CheckSlots(); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()

	w := &gossip.StateWriter{}
	for i := 0; i < e.N(); i++ {
		e.Protocol(i).SaveState(w)
	}
	pin := roundPin{
		Round:    e.Round(),
		State:    stateDigest(w.State),
		Errors:   stateDigest(gossip.State{F64: e.Errors()}),
		Detector: e.DetectorStats(),
	}
	switch ic := ic.(type) {
	case *fault.Duplicate:
		pin.Injected = ic.Dups
	case *fault.Reorder:
		pin.Injected = ic.Swaps
	case *fault.BitFlip:
		pin.Injected = ic.Flips
	}
	raw, err := json.Marshal(rec.Counters())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &pin.Counters); err != nil {
		t.Fatal(err)
	}
	delete(pin.Counters, "freelist_hits")
	delete(pin.Counters, "freelist_misses")
	return pin
}

// stateDigest is the SHA-256 of st's streams in little-endian order.
func stateDigest(st gossip.State) string {
	var b []byte
	for _, x := range st.F64 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	for _, x := range st.U64 {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	for _, x := range st.I32 {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	sum := sha256.Sum256(append(b, st.B...))
	return hex.EncodeToString(sum[:])
}

// TestRoundModelsPinned pins both round models — the sequential engine
// and a two-shard cache-aware engine — across refactors of the shared
// executor: detector keepalives and probes over a silent outage, bare
// Replicator and Injector interceptors, an in-place bit flip, hung
// nodes that resume, joins, leaves, rewires, flushed
// link failures, notified crashes and the final Drain, for PF, both PCF
// variants, FU and push-sum, on a sparse graph and on a dense one whose
// edge lookups go through the id map. Run with -update-pin only when
// the engine's results are meant to change.
func TestRoundModelsPinned(t *testing.T) {
	got := map[string]roundPin{}
	for _, sc := range pinScenarios {
		for _, pc := range pinProtocols {
			for _, sharded := range []bool{false, true} {
				model := "sequential"
				if sharded {
					model = "sharded2-cacheaware"
				}
				got[sc.name+"/"+pc.name+"/"+model] = runPinScenario(t, sc, pc.mk, sharded)
			}
		}
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *updateRoundPin {
		if err := os.MkdirAll(filepath.Dir(roundPinPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(roundPinPath, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(roundPinPath)
	if err != nil {
		t.Fatalf("read pinned results: %v", err)
	}
	if bytes.Equal(raw, enc) {
		return
	}
	var want map[string]roundPin
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decode pinned results: %v", err)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: scenario missing from this run", name)
			continue
		}
		wj, _ := json.Marshal(w)
		gj, _ := json.Marshal(g)
		if !bytes.Equal(wj, gj) {
			t.Errorf("%s:\n got  %s\n want %s", name, gj, wj)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d scenarios, %d pinned", len(got), len(want))
	}
}
