package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"rme"
	"rme/internal/memory"
	"rme/internal/metrics"
)

// Traced-run budget shares of --seconds. The rest of the run (port
// micro-benchmark, RMR anchor) is short and fixed.
const (
	mainShare  = 0.70 // interleaved API / rebuilt-plain / rebuilt-traced rounds
	probeShare = 0.22 // single-worker probes of the rme layer
	portShare  = 0.05 // standalone port operations
	// ledgerTolerance bounds both parts of the ledger reconciliation
	// (see tracedRun).
	ledgerTolerance = 0.10
	// rmrAnchor is the failure-free per-passage RMR median of an n=1
	// Mutex (BENCH_metrics.json, workers=1, F=0).
	rmrAnchor = 37
)

// tracedRun prints the per-layer ledger of workload w. Its main phase
// interleaves, round by round, three variants of the same closed loop:
// the rme API exactly as the untraced run drives it (runtime metrics are
// sampled around these rounds), the rebuilt lock untraced, and the
// rebuilt lock traced. Their difference is the tracing overhead; host
// phases hit all three equally.
func tracedRun(w *workload, seed int64, d time.Duration) (*result, error) {
	in := genInputs(seed, w.workers, w)
	api, err := newTarget(w, in)
	if err != nil {
		return nil, err
	}
	var mapBase []rme.MapStats
	if mt, ok := api.(*mapTarget); ok {
		for _, ma := range mt.ms {
			mapBase = append(mapBase, ma.Stats())
		}
	}
	plain := buildRebuiltTarget(w, false)
	traced := buildRebuiltTarget(w, true)
	targets := []target{api, plain, traced}
	var ws [3][]*worker
	for v := range ws {
		for p := 0; p < w.workers; p++ {
			ws[v] = append(ws[v], newWorker(p, w, in))
		}
	}
	var host hostRef
	rt := newRTSampler()
	runtime.GC()
	deadline := now() + int64(float64(d)*mainShare)
	rs := newRounds(w.workers)
	rs.run(w.workers, func(r int) bool {
		if r%hostEvery == 0 {
			host.burst()
		}
		return now() >= deadline
	}, func(pid, r int) {
		v, rr := r%3, r/3
		if pid == 0 && v == 0 {
			rt.start()
		}
		for i := 0; i < w.block; i++ {
			targets[v].passage(ws[v][pid], rr, w.order(rr, i))
		}
		if pid == 0 && v == 0 {
			rt.stop()
		}
	})

	res := &result{}
	var sums [3]struct {
		lat, rec *latHist
		passages int64
		fragNs   int64
	}
	for v := range ws {
		sums[v].lat, sums[v].rec = newLatHist(), newLatHist()
		for _, wk := range ws[v] {
			wk.ser[kLock].into(sums[v].lat)
			wk.ser[sRec].into(sums[v].rec)
			sums[v].passages += wk.passages
			sums[v].fragNs += wk.fragNs
			res.attempted += wk.requested
			res.failed += wk.failures
			res.crashes += wk.crashes
		}
		res.failed += targets[v].check(ws[v])
	}
	res.samples = sums[2].lat.n

	// memory, core, yalock, reclaim, grlock: the traced variant's ledger.
	tp := float64(sums[2].passages)
	var ns [nLayers]int64
	var ops [nLayers]uint64
	var maxLevel int
	var splitters, fastWins, baseEnters int64
	for i := range traced.lg.procs {
		lp := &traced.lg.procs[i]
		for l := 0; l < nLayers; l++ {
			ns[l] += lp.ns[l]
			ops[l] += lp.ops[l]
		}
		maxLevel = max(maxLevel, lp.maxLevel)
		splitters += lp.splitters
		fastWins += lp.fastWins
		baseEnters += lp.baseEnters
	}
	var allOps uint64
	var selfNs int64
	for l := 0; l < nLayers; l++ {
		allOps += ops[l]
		if l != lyOutside {
			selfNs += ns[l]
		}
	}
	var snap metrics.Snapshot
	for i, rb := range traced.sets {
		if i == 0 {
			snap = rb.rec.Snapshot()
		} else {
			snap = snap.Merge(rb.rec.Snapshot())
		}
	}
	per := func(v float64) float64 { return v / tp }
	res.add("memory.ops_per_passage", per(float64(allOps)), "count")
	res.add("memory.rmrs_per_passage", float64(snap.RMRs)/tp, "count")
	res.add("memory.pause_calls_per_passage", per(float64(traced.lg.pauses())), "count")
	res.add("memory.pause_ns_per_passage", per(float64(ns[lyPause])), "ns")
	res.add("core.filter.self_ns", per(float64(ns[lyFilter])), "ns")
	res.add("core.filter.ops", per(float64(ops[lyFilter])), "count")
	res.add("core.splitter.self_ns", per(float64(ns[lySplitter])), "ns")
	res.add("core.splitter.ops", per(float64(ops[lySplitter])), "count")
	res.add("core.fast.self_ns", per(float64(ns[lyFast])), "ns")
	res.add("core.core.self_ns", per(float64(ns[lyCore])), "ns")
	res.add("core.balock.self_ns", per(float64(ns[lyBALock])), "ns")
	res.add("core.exit.self_ns", per(float64(ns[lyExit])), "ns")
	res.add("core.exit.ops", per(float64(ops[lyExit])), "count")
	res.add("core.fast_path_share", float64(fastWins)/float64(max(splitters, 1)), "ratio")
	res.add("core.max_level", float64(maxLevel), "count")
	res.add("yalock.arbitrator.self_ns", per(float64(ns[lyArb])), "ns")
	res.add("yalock.arbitrator.ops", per(float64(ops[lyArb])), "count")
	res.add("reclaim.alloc.self_ns", per(float64(ns[lyReclaim])), "ns")
	res.add("reclaim.alloc.ops", per(float64(ops[lyReclaim])), "count")
	res.add("grlock.base.self_ns", per(float64(ns[lyBase])), "ns")
	res.add("grlock.base.calls_per_kpassage", per(float64(baseEnters))*1000, "count")

	// Ledger reconciliation, in two parts. The ledger is one flat
	// timeline per process, so the spans cover the traced passage by
	// construction: bench.unattributed_ns (the passage timed around the
	// call, less every span) only bounds the benchmark's bookkeeping
	// outside them, and a layer with no hook of its own is counted in the
	// span entered before it. The independent part compares the API
	// rounds, timed with no hooks, with the untraced rebuilt lock:
	// bench.api_gap_ns is the user-visible Lock passage's median less the
	// rebuilt one's, the passage time no rebuilt layer covers (the rme
	// wrapper). The first must stay within ledgerTolerance on every
	// workload, the second on uncontended (elsewhere the gap also holds
	// the Map layer or waiting that differs between the variants), so
	// that the self times less the tracing overhead account for the
	// passage a user sees.
	tracedNs := per(sums[2].lat.sum + sums[2].rec.sum + float64(sums[2].fragNs))
	unattributed := tracedNs - per(float64(selfNs))
	apiP50, plainP50 := sums[0].lat.quantile(0.5), sums[1].lat.quantile(0.5)
	gap := apiP50 - plainP50
	res.add("bench.traced_passage_ns", tracedNs, "ns")
	res.add("bench.cs_ns", per(float64(ns[lyCS])), "ns")
	res.add("metrics.recorder_self_ns", per(float64(ns[lyRecorder])), "ns")
	res.add("bench.unattributed_ns", unattributed, "ns")
	res.add("bench.tracing_overhead_ns", sums[2].lat.quantile(0.5)-plainP50, "ns")
	res.add("bench.api_gap_ns", gap, "ns")
	if share := unattributed / tracedNs; math.Abs(share) > ledgerTolerance {
		fmt.Fprintf(errOut, "ledger: spans leave %.1f%% of the traced passage unattributed (tolerance %.0f%%)\n",
			100*share, 100*ledgerTolerance)
		res.failed++
	}
	if share := gap / apiP50; w.name == "uncontended" && math.Abs(share) > ledgerTolerance {
		fmt.Fprintf(errOut, "ledger: the rebuilt lock misses the API passage by %.1f%% (tolerance %.0f%%)\n",
			100*share, 100*ledgerTolerance)
		res.failed++
	}

	// metrics: the program's own recorder on the traced locks must agree
	// with the RMRs the benchmark's ports classified themselves. With
	// one worker no op races and the two counts are equal passage by
	// passage. With two, a read racing a write on the same word may be
	// classified before the write by one counter and after it by the
	// other (both are legal CC orders), which moves the means by a few
	// tenths of a percent and can tip a median lying on a bucket
	// boundary; there the medians must be within one.
	mine := traced.lg.rmrHist()
	res.add("bench.rmr_p50", float64(mine.Quantile(0.5)), "count")
	res.add("metrics.rmr_p50", float64(snap.RMRHist.Quantile(0.5)), "count")
	res.add("metrics.rmr_p99", float64(snap.RMRHist.Quantile(0.99)), "count")
	got, want := mine.Quantile(0.5), snap.RMRHist.Quantile(0.5)
	if slack := min(w.workers-1, 1); got < want-slack || got > want+slack {
		fmt.Fprintf(errOut, "RMR anchor: benchmark-counted median %d, metrics.rmr_p50 %d (allowed difference %d)\n", got, want, slack)
		res.failed++
	}
	res.failed += checkSnapshot("rebuilt", snap, uint64(sums[2].passages))

	// The Go runtime, around the API rounds.
	ap := float64(sums[0].passages)
	res.add("runtime.sched_latency_p99_ns", rt.schedP99()*1e9, "ns")
	res.add("runtime.mutex_wait_ns_per_passage", rt.mutexWait*1e9/ap, "ns")
	res.add("runtime.alloc_bytes_per_passage", float64(rt.allocBytes)/ap, "bytes")
	res.add("runtime.gc_cycles_per_mpassage", float64(rt.gcCycles)*1e6/ap, "count")

	// Map lifecycle, from the API Maps' ledgers: every instantiation
	// during the timed rounds is a miss.
	var inst, recycled, evicted uint64
	var footprint float64
	if mt, ok := api.(*mapTarget); ok {
		for i, ma := range mt.ms {
			s := ma.Stats()
			inst += s.Instantiated - mapBase[i].Instantiated
			recycled += s.Recycled - mapBase[i].Recycled
			evicted += s.Evictions - mapBase[i].Evictions
			footprint += float64(s.FootprintWords) / float64(len(mt.ms))
		}
	}

	// The rme layer, metrics and flight: single-worker probes.
	pr, err := runProbes(w, in, time.Duration(float64(d)*probeShare))
	if err != nil {
		return nil, err
	}
	res.attempted += pr.attempted
	res.failed += pr.failed
	p50 := func(i int) float64 { return pr.lat[i].quantile(0.5) }
	allocs := func(i int) float64 { return float64(pr.allocs[i]) / float64(max(pr.lat[i].n, 1)) }
	res.add("rme.ctx_overhead_ns", p50(pvCtx)-p50(pvLock), "ns")
	res.add("rme.trylock_overhead_ns", p50(pvTry)-p50(pvLock), "ns")
	res.add("rme.allocs_per_passage", allocs(pvLock), "count")
	res.add("rme.allocs_per_ctx_passage", allocs(pvCtx), "count")
	res.add("rme.allocs_per_trylock_passage", allocs(pvTry), "count")
	res.add("metrics.overhead_ns", p50(pvMetrics)-p50(pvLock), "ns")
	res.add("flight.on_overhead_ns", p50(pvFlightOn)-p50(pvLock), "ns")
	res.add("flight.off_overhead_ns", p50(pvFlightOff)-p50(pvLock), "ns")
	if w.keyed {
		res.add("map.hit_lock_ns", pr.hit.quantile(0.5), "ns")
		res.add("map.miss_lock_ns", pr.miss.quantile(0.5), "ns")
	} else {
		res.add("map.hit_lock_ns", 0, "ns")
		res.add("map.miss_lock_ns", 0, "ns")
	}
	res.add("map.miss_share", float64(inst)/ap, "ratio")
	res.add("map.evictions_per_kpassage", float64(evicted)*1000/ap, "count")
	res.add("map.recycled_share", float64(recycled)/float64(max(inst, 1)), "ratio")
	res.add("map.footprint_words", footprint, "words")

	// The memory layer standalone: a port operation against the raw
	// atomic it wraps.
	port := portBench(time.Duration(float64(d) * portShare))
	res.add("memory.port_read_ns", port[0], "ns")
	res.add("memory.port_write_ns", port[1], "ns")
	res.add("memory.port_fas_ns", port[2], "ns")
	res.add("memory.port_cas_ns", port[3], "ns")
	res.add("memory.port_overhead_ns", (port[0]+port[1]+port[2]+port[3]-port[4]-port[5]-port[6]-port[7])/4, "ns")

	res.failed += anchorCheck()
	res.host = host.ns()
	return res, nil
}

// checkSnapshot verifies a quiescent metrics snapshot's attempt
// partition and its passage count.
func checkSnapshot(what string, s metrics.Snapshot, passages uint64) int64 {
	var bad int64
	if s.Attempts != s.Passages+s.Aborted+s.CrashedAttempts {
		fmt.Fprintf(errOut, "%s metrics: attempts %d != passages %d + aborted %d + crashed %d\n",
			what, s.Attempts, s.Passages, s.Aborted, s.CrashedAttempts)
		bad++
	}
	if s.Passages != passages {
		fmt.Fprintf(errOut, "%s metrics: %d passages recorded, %d completed\n", what, s.Passages, passages)
		bad++
	}
	return bad
}

// anchorCheck runs failure-free passages on an n=1 metrics-enabled Mutex
// and checks the paper's w=1 RMR anchor.
func anchorCheck() int64 {
	const passages = 5000
	m, err := rme.New(1, rme.WithMetrics())
	if err != nil {
		fmt.Fprintln(errOut, "anchor:", err)
		return 1
	}
	for i := 0; i < passages; i++ {
		m.Lock(0)
		m.Unlock(0)
	}
	s, _ := m.MetricsSnapshot()
	bad := checkSnapshot("anchor", s, passages)
	if got := s.RMRHist.Quantile(0.5); got != rmrAnchor {
		fmt.Fprintf(errOut, "anchor: n=1 RMR median %d, want %d\n", got, rmrAnchor)
		bad++
	}
	return bad
}

// rtSampler accumulates Go runtime metrics over sampled intervals.
type rtSampler struct {
	s          []rtmetrics.Sample
	begin      []rtmetrics.Value
	sched      []uint64
	buckets    []float64
	mutexWait  float64
	allocBytes uint64
	gcCycles   uint64
}

func newRTSampler() *rtSampler {
	names := []string{"/sched/latencies:seconds", "/sync/mutex/wait/total:seconds",
		"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}
	r := &rtSampler{}
	for _, n := range names {
		r.s = append(r.s, rtmetrics.Sample{Name: n})
	}
	return r
}

func (r *rtSampler) start() {
	rtmetrics.Read(r.s)
	r.begin = r.begin[:0]
	for _, s := range r.s {
		v := s.Value
		if v.Kind() == rtmetrics.KindFloat64Histogram {
			h := v.Float64Histogram()
			if r.sched == nil {
				r.sched = make([]uint64, len(h.Counts))
				r.buckets = append([]float64(nil), h.Buckets...)
			}
			for i, c := range h.Counts {
				r.sched[i] -= c
			}
		}
		r.begin = append(r.begin, v)
	}
}

func (r *rtSampler) stop() {
	rtmetrics.Read(r.s)
	for i, c := range r.s[0].Value.Float64Histogram().Counts {
		r.sched[i] += c
	}
	r.mutexWait += r.s[1].Value.Float64() - r.begin[1].Float64()
	r.allocBytes += r.s[2].Value.Uint64() - r.begin[2].Uint64()
	r.gcCycles += r.s[3].Value.Uint64() - r.begin[3].Uint64()
}

// schedP99 is the upper edge of the bucket holding the 99th percentile of
// the sampled scheduling latencies, in seconds.
func (r *rtSampler) schedP99() float64 {
	var total uint64
	for _, c := range r.sched {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total) * 0.99)
	var cum uint64
	for i, c := range r.sched {
		cum += c
		if cum > rank {
			return r.buckets[i+1]
		}
	}
	return r.buckets[len(r.buckets)-1]
}

// portBench times each port operation kind and the raw atomic it wraps,
// in interleaved batches, and returns the median ns per operation:
// port read, write, FAS, CAS, then raw load, store, swap, CAS.
func portBench(d time.Duration) [8]float64 {
	const batch = 4096
	arena := memory.NewNativeArena(1, 4*memory.LineWords)
	a := arena.Alloc(1, 0)
	p := arena.Port(0, nil)
	var raw struct {
		_ [memory.LineWords]uint64
		v atomic.Uint64
		_ [memory.LineWords]uint64
	}
	var samples [8][]float64
	var sink uint64
	deadline := now() + int64(d)
	for now() < deadline {
		for k := 0; k < 8; k++ {
			t0 := now()
			switch k {
			case 0:
				for i := 0; i < batch; i++ {
					sink += p.Read(a)
				}
			case 1:
				for i := 0; i < batch; i++ {
					p.Write(a, uint64(i))
				}
			case 2:
				for i := 0; i < batch; i++ {
					sink += p.FAS(a, uint64(i))
				}
			case 3:
				v := p.Read(a)
				for i := 0; i < batch; i++ {
					p.CAS(a, v, v+1)
					v++
				}
			case 4:
				for i := 0; i < batch; i++ {
					sink += raw.v.Load()
				}
			case 5:
				for i := 0; i < batch; i++ {
					raw.v.Store(uint64(i))
				}
			case 6:
				for i := 0; i < batch; i++ {
					sink += raw.v.Swap(uint64(i))
				}
			case 7:
				v := raw.v.Load()
				for i := 0; i < batch; i++ {
					raw.v.CompareAndSwap(v, v+1)
					v++
				}
			}
			samples[k] = append(samples[k], float64(now()-t0)/batch)
		}
	}
	portSink.Store(sink)
	var out [8]float64
	for k := range out {
		out[k] = median(samples[k])
	}
	return out
}

var portSink atomic.Uint64

// Probe variants: single-worker passages of the rme layer.
const (
	pvLock      = iota // Lock + Unlock
	pvCtx              // LockCtx (context never fires) + Unlock
	pvTry              // TryLockFor (deadline never expires) + Unlock
	pvMetrics          // Lock + Unlock, WithMetrics
	pvFlightOn         // Lock + Unlock, WithTracing, recording
	pvFlightOff        // Lock + Unlock, WithTracing, disabled
	nProbes
)

type probeResult struct {
	lat       [nProbes]*latHist
	allocs    [nProbes]uint64
	hit, miss *latHist
	attempted int64
	failed    int64
}

// probeInstances is how many fresh instances each probe variant rotates
// over, for the same heap-placement reason as the workloads.
const probeInstances = 4

// runProbes times single-worker passages of each probe variant in
// interleaved blocks, on the workload's own lock type (an n=8 Mutex, or
// a two-process Map on one hot key), and counts their heap allocations.
// For the keyed workload it then classifies Map Lock calls over the
// workload's key sequence into hits and misses.
func runProbes(w *workload, in *inputs, d time.Duration) (*probeResult, error) {
	pr := &probeResult{hit: newLatHist(), miss: newLatHist()}
	var g csGuard
	var sink uint64
	cs := func() bool {
		ok := g.enter(0, false)
		sink = spin(w.csIters, sink)
		g.exit()
		return ok
	}
	ctx := context.Background()
	var pass [nProbes][]func() bool
	// The WithMetrics instances' snapshots, read after the probe.
	var snaps []func() (metrics.Snapshot, bool)
	for v := 0; v < nProbes; v++ {
		var opts []rme.Option
		switch v {
		case pvMetrics:
			opts = append(opts, rme.WithMetrics())
		case pvFlightOn:
			opts = append(opts, rme.WithTracing(rme.TracingOptions{}))
		case pvFlightOff:
			opts = append(opts, rme.WithTracing(rme.TracingOptions{Disabled: true}))
		}
		for i := 0; i < probeInstances; i++ {
			var lock func() bool
			var unlock func()
			if w.keyed {
				ma, err := rme.NewMap(w.workers, opts...)
				if err != nil {
					return nil, err
				}
				key := in.names[0]
				lock, unlock = mapProbe(ma, key, v, ctx)
				if v == pvMetrics {
					snaps = append(snaps, ma.MetricsSnapshot)
				}
			} else {
				m, err := rme.New(mutexN, opts...)
				if err != nil {
					return nil, err
				}
				lock, unlock = mutexProbe(m, v, ctx)
				if v == pvMetrics {
					snaps = append(snaps, m.MetricsSnapshot)
				}
			}
			pass[v] = append(pass[v], func() bool {
				if !lock() {
					return false
				}
				ok := cs()
				unlock()
				return ok
			})
		}
	}
	for v := range pr.lat {
		pr.lat[v] = newLatHist()
	}
	allocs := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	const block = 64
	hitShare := 0.0
	if w.keyed {
		hitShare = 0.3
	}
	runtime.GC()
	deadline := now() + int64(float64(d)*(1-hitShare))
	for r := 0; now() < deadline; r++ {
		v := r % nProbes
		f := pass[v][(r/nProbes)%probeInstances]
		rtmetrics.Read(allocs)
		a0 := allocs[0].Value.Uint64()
		for i := 0; i < block; i++ {
			pr.attempted++
			t0 := now()
			if !f() {
				pr.failed++
				continue
			}
			pr.lat[v].add(now() - t0)
		}
		rtmetrics.Read(allocs)
		pr.allocs[v] += allocs[0].Value.Uint64() - a0
	}
	var snap metrics.Snapshot
	for i, f := range snaps {
		s, _ := f()
		if i == 0 {
			snap = s
		} else {
			snap = snap.Merge(s)
		}
	}
	pr.failed += checkSnapshot("probe", snap, uint64(pr.lat[pvMetrics].n))
	if w.keyed {
		pr.failed += mapHitMiss(w, in, time.Duration(float64(d)*hitShare), pr)
	}
	portSink.Add(sink)
	return pr, nil
}

func mutexProbe(m *rme.Mutex, v int, ctx context.Context) (lock func() bool, unlock func()) {
	unlock = func() { m.Unlock(0) }
	switch v {
	case pvCtx:
		lock = func() bool { return m.LockCtx(ctx, 0) == nil }
	case pvTry:
		lock = func() bool { return m.TryLockFor(0, time.Hour) }
	default:
		lock = func() bool { m.Lock(0); return true }
	}
	return lock, unlock
}

func mapProbe(ma *rme.Map, key string, v int, ctx context.Context) (lock func() bool, unlock func()) {
	unlock = func() { ma.Unlock(0, key) }
	switch v {
	case pvCtx:
		lock = func() bool { return ma.LockCtx(ctx, 0, key) == nil }
	case pvTry:
		lock = func() bool { return ma.TryLockFor(0, key, time.Hour) }
	default:
		lock = func() bool { ma.Lock(0, key); return true }
	}
	return lock, unlock
}

// mapHitMiss times single-worker Map Lock calls over worker 0's key
// sequence on a fresh, warmed Map and classifies each by whether the
// Map instantiated a key during the call. It returns the failures seen.
func mapHitMiss(w *workload, in *inputs, d time.Duration, pr *probeResult) int64 {
	t, err := buildMapTarget(w, in.names)
	if err != nil {
		fmt.Fprintln(errOut, "map probe:", err)
		return 1
	}
	ma := t.ms[0]
	seq := in.keys[0]
	inst := ma.Stats().Instantiated
	deadline := now() + int64(d)
	for i := 0; now() < deadline; i++ {
		name := in.names[seq[i%len(seq)]]
		t0 := now()
		ma.Lock(0, name)
		dt := now() - t0
		ma.Unlock(0, name)
		next := ma.Stats().Instantiated
		if next != inst {
			pr.miss.add(dt)
		} else {
			pr.hit.add(dt)
		}
		inst = next
	}
	return checkMapStats(ma)
}
