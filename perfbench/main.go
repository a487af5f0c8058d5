// Command perfbench is the repository's benchmark: it runs one named
// workload through the public rme API and prints every end-to-end metric,
// or (with --trace 1) rebuilds the same lock from its layers and prints
// the per-layer ledger. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The metrics in
// it are the ones BENCHMARK.json (read from the working directory) lists
// for the mode; every other metric is printed on a "metric" line above.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload uncontended --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload contended --seed 1 --seconds 25 --steady 10
//
// Any correctness failure makes it exit non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

var errOut io.Writer = os.Stderr

type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	crashes           int64
	metrics           []metric
	host              float64 // in-run sync.Mutex reference, ns per passage
	samples           int64   // failure-free Lock passages timed
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// benchSpec is the part of BENCHMARK.json the command reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec() (*benchSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: uncontended, contended, recovery or keyed")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 10, "timed seconds per run")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer ledger")
	steady := flag.Int("steady", 0, "steadiness mode: repeat the run this many times in each of two sets (seeds seed, seed+1, ...)")
	flag.Parse()

	spec, err := readSpec()
	if err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if *steady > 0 {
		return steadiness(spec, w, *seed, *seconds, *trace, *steady)
	}

	d := time.Duration(*seconds) * time.Second
	var res *result
	want := spec.EndToEnd
	if *trace == 1 {
		res, err = tracedRun(w, *seed, d)
		want = spec.PerLayer
	} else {
		res, err = e2eRun(w, *seed, d)
	}
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d trace %d: %d passages attempted, %d failed, %d injected crashes, %d timed Lock passages\n",
		w.name, *seed, *trace, res.attempted, res.failed, res.crashes, res.samples)
	for _, m := range res.metrics {
		fmt.Printf("metric %-36s %20s %s\n", m.name, strconv.FormatFloat(m.value, 'f', -1, 64), m.unit)
	}
	fmt.Printf("metric %-36s %20s %s\n", "host.sync_mutex_ns", strconv.FormatFloat(res.host, 'f', -1, 64), "ns")

	out := map[string]any{}
	for _, sm := range want {
		m, ok := res.get(sm.Name)
		if !ok && sm.Name == "host.sync_mutex_ns" {
			m, ok = metric{sm.Name, res.host, "ns"}, true
		}
		if !ok {
			res.failed++
			fmt.Fprintf(errOut, "metric %s listed in BENCHMARK.json was not measured\n", sm.Name)
			continue
		}
		if m.unit != sm.Unit {
			res.failed++
			fmt.Fprintf(errOut, "metric %s measured in %s, BENCHMARK.json says %s\n", sm.Name, m.unit, sm.Unit)
		}
		out[sm.Name] = map[string]any{"value": m.value, "unit": sm.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.failed != 0 {
		os.Exit(1)
	}
	return nil
}
