package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// extraBounds are the bounds of the end-to-end metrics BENCHMARK.json
// does not gate: those that apply to only some workloads (BENCHMARK.json
// can gate only metrics every workload reports), and the throughput and
// median, whose spread over ten runs on a shared two-CPU host reached
// 0.25 and 0.26, and whose median moved by up to 0.30 between two sets,
// when the host changed speed. The steadiness mode judges them by the
// same rule as the gated ones: a set's spread must stay within the bound
// (a third of it is the target) and two sets' medians within the bound.
var extraBounds = map[string]specMetric{
	"passages_per_s":         {Unit: "1/s", Better: "higher", Bound: 0.25},
	"passage_p50_ns":         {Unit: "ns", Better: "lower", Bound: 0.25},
	"ctx_passage_p50_ns":     {Unit: "ns", Better: "lower", Bound: 0.25},
	"trylock_passage_p50_ns": {Unit: "ns", Better: "lower", Bound: 0.25},
	"recovery_p50_ns":        {Unit: "ns", Better: "lower", Bound: 0.25},
	"recovery_p99_ns":        {Unit: "ns", Better: "lower", Bound: 0.25},
}

// steadiness repeats the workload in fresh processes, in two sets of
// runs with consecutive seeds, and prints per set each metric's median,
// quartiles, spread (IQR as a share of the median) and worst deviation
// from the median, with the in-run host reference beside them; then it
// compares the second set's medians with the first's. It returns an
// error when a bounded metric spreads beyond its bound within a set or
// the two sets' medians differ, in either direction, by more than the
// bound; a spread beyond a third of the bound is flagged.
func steadiness(spec *benchSpec, w *workload, seed int64, seconds, trace, runs int) error {
	const sets = 2
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]specMetric{}
	for k, v := range extraBounds {
		bounds[k] = v
	}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m
	}
	var setMedians []map[string]float64
	var order []string
	bad := 0
	for s := 0; s < sets; s++ {
		vals := map[string][]float64{}
		for i := 0; i < runs; i++ {
			sd := seed + int64(s*runs+i)
			out, err := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(sd, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace)).Output()
			if err != nil {
				return fmt.Errorf("run seed %d: %w", sd, err)
			}
			var brief []string
			sc := bufio.NewScanner(bytes.NewReader(out))
			for sc.Scan() {
				f := strings.Fields(sc.Text())
				if len(f) != 4 || f[0] != "metric" {
					continue
				}
				v, err := strconv.ParseFloat(f[2], 64)
				if err != nil {
					return fmt.Errorf("run seed %d: %q: %w", sd, sc.Text(), err)
				}
				if _, seen := vals[f[1]]; !seen && s == 0 {
					order = append(order, f[1])
				}
				vals[f[1]] = append(vals[f[1]], v)
				if len(brief) < 3 || f[1] == "host.sync_mutex_ns" {
					brief = append(brief, f[1]+"="+f[2])
				}
			}
			fmt.Fprintf(os.Stderr, "set %d run %d seed %d: %s\n", s+1, i+1, sd, strings.Join(brief, " "))
		}
		fmt.Printf("set %d: %s, %d runs of %d s, trace %d\n", s+1, w.name, runs, seconds, trace)
		fmt.Printf("  %-32s %14s %14s %14s %8s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "worst", "bound")
		meds := map[string]float64{}
		for _, name := range order {
			vs := vals[name]
			q1, q2, q3 := quartiles(vs)
			meds[name] = q2
			spread, worst := 0.0, 0.0
			if q2 != 0 {
				spread = (q3 - q1) / math.Abs(q2)
				for _, v := range vs {
					worst = math.Max(worst, math.Abs(v-q2)/math.Abs(q2))
				}
			}
			b, bounded := bounds[name]
			flag, bs := "", "-"
			if bounded && trace == 0 {
				bs = fmt.Sprintf("%.3f", b.Bound)
				switch {
				case spread > b.Bound:
					flag = "  SPREAD > bound"
					bad++
				case spread > b.Bound/3:
					flag = "  spread > bound/3, the target"
				}
			}
			fmt.Printf("  %-32s %14.4f %14.4f %14.4f %8.4f %8.4f %6s%s\n", name, q1, q2, q3, spread, worst, bs, flag)
		}
		setMedians = append(setMedians, meds)
	}
	fmt.Println("set 2 vs set 1 (median change, positive = worse):")
	names := append([]string(nil), order...)
	sort.Strings(names)
	for _, name := range names {
		b, bounded := bounds[name]
		if !bounded || trace != 0 {
			continue
		}
		m1, m2 := setMedians[0][name], setMedians[1][name]
		worse := (m2 - m1) / m1
		if b.Better == "higher" {
			worse = -worse
		}
		flag := ""
		if math.Abs(worse) > b.Bound {
			flag = "  SETS DISAGREE BEYOND BOUND"
			bad++
		}
		fmt.Printf("  %-32s %14.4f -> %14.4f  %+8.4f  bound %.3f%s\n", name, m1, m2, worse, b.Bound, flag)
	}
	if bad > 0 {
		return fmt.Errorf("%d steadiness violations", bad)
	}
	return nil
}
