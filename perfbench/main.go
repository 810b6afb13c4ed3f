// Command perfbench is the repository's end-to-end benchmark: time to ε
// of the phase-split sharded PCF engine on three workloads, with the
// outputs checked against the benchmark's own oracle. See README.md for
// the workloads, the metrics and which layer metric should move which
// end-to-end metric.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload hc16k-pcf --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 a
// separate traced run prints the per-layer metrics. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// shards is both GOMAXPROCS and the engine's shard count: one process,
// one shard per core of the 2-core reference host.
const shards = 2

// workload is one named set of generated inputs plus the loop that runs
// the program on them.
type workload interface {
	// measure runs the workload repeatedly for budget with tracing off
	// and reports the end-to-end metrics.
	measure(seed int64, budget time.Duration) (*result, error)
	// trace runs the traced legs and reports the per-layer metrics,
	// recording spans into tr.
	trace(seed int64, budget time.Duration, tr *tracer) (*result, error)
}

// workloads are the benchmark's named workloads; later changes refer to
// these names.
var workloads = map[string]workload{
	"hc16k-pcf":        hc16k,
	"torus4k-linkfail": torus4k,
	"qr256-dmgs":       qr256,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output record.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
}

func newResult() *result { return &result{Correct: true, Metrics: make(map[string]metric)} }

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// problem marks the run incorrect with a reason.
func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// attempt counts one checked operation; a non-nil err counts it failed.
func (r *result) attempt(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.problem("%v", err)
	}
}

// sameRounds records the round count of one repeat and flags a repeat
// whose count differs from the first: the sharded engine is
// deterministic, so the count must repeat exactly.
func (r *result) sameRounds(first *int, got int) {
	if *first < 0 {
		*first = got
	} else if got != *first {
		r.problem("rounds differ between repeats: %d vs %d", *first, got)
	}
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spansDir := flag.String("spans-dir", "", "directory for the traced run's spans (empty = keep in memory only)")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(shards)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d nproc=%d gomaxprocs=%d shards=%d layout=cache-aware\n",
		*name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), shards)

	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *traced == 1 {
		tr := newTracer()
		res, err = w.trace(*seed, budget, tr)
		if err == nil && *spansDir != "" {
			err = tr.write(*spansDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		}
	} else {
		res, err = w.measure(*seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// emit prints one line per metric, then the JSON record as the last line.
func emit(out io.Writer, res *result) error {
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-28s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
