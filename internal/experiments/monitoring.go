package experiments

import (
	"math/rand"

	"pcfreduce/internal/fault"
	"pcfreduce/internal/gossip"
	"pcfreduce/internal/stats"
	"pcfreduce/internal/topology"
)

// MonitoringResult reports one algorithm's live-monitoring behavior
// (EXP-J): the network tracks a continuously drifting aggregate while
// messages are being lost.
type MonitoringResult struct {
	Algorithm string
	// TrackingErrMedian is the median (over the steady-state window) of
	// the per-round maximal relative local error against the current
	// true aggregate.
	TrackingErrMedian float64
	// TrackingErrWorst is the worst such error in the window.
	TrackingErrWorst float64
}

// Monitoring runs the live-monitoring scenario of the paper's reference
// [8] (LiMoSense): every updateEvery rounds one node's input takes a
// random-walk step, the oracle aggregate moves accordingly, and the
// reduction must keep tracking it — while lossRate of all messages
// vanish. Flow algorithms re-average every input change and track with
// bounded lag; push-sum loses a fraction of every adjustment forever and
// drifts.
func Monitoring(algo Algorithm, dim int, rounds, updateEvery int, lossRate float64, seed int64) MonitoringResult {
	g := topology.Hypercube(dim)
	n := g.N()
	inputs := UniformInputs(n, seed)
	e := newEngine(g, algo.Protos(n), inputs, seed, engineSpec{})
	if lossRate > 0 {
		e.SetInterceptor(fault.NewLoss(lossRate, seed+11))
	}
	rng := rand.New(rand.NewSource(seed + 17))
	var window []float64
	warmup := rounds / 2
	for r := 0; r < rounds; r++ {
		if updateEvery > 0 && r%updateEvery == 0 && r > 0 {
			node := rng.Intn(n)
			delta := 0.2 * (rng.Float64() - 0.5)
			v := gossip.Scalar(inputs[node]+delta, gossip.Average.InitialWeight(node))
			inputs[node] += delta
			e.UpdateInput(node, v)
		}
		e.Step()
		if r >= warmup {
			window = append(window, e.MaxError())
		}
	}
	return MonitoringResult{
		Algorithm:         algo.Name,
		TrackingErrMedian: stats.Median(window),
		TrackingErrWorst:  stats.Max(window),
	}
}
