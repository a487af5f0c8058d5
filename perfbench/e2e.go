package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"rme"
)

// worker is one closed-loop client: it impersonates process pid, cycles
// through its seeded inputs and records what it observed.
type worker struct {
	pid int
	w   *workload
	in  *inputs
	seq int // passages requested so far; indexes the input arrays

	// ser[k] holds failure-free passages of kind k; ser[sRec] the first
	// passage after each crash.
	ser       [nSeries]series
	requested int64
	passages  int64
	crashes   int64
	failures  int64
	fragNs    int64 // time in crashed attempts (rebuilt lock only)
	sink      uint64

	// The current critical section, read by cs.
	g       *csGuard
	csCrash bool
	reentry bool
	csFn    func()
}

func newWorker(pid int, w *workload, in *inputs) *worker {
	wk := &worker{pid: pid, w: w, in: in}
	wk.csFn = wk.cs
	return wk
}

// cs is the critical section: claim the guard, optionally crash (the
// recovery workload's in-CS failures), do the fixed work, release.
func (wk *worker) cs() {
	if !wk.g.enter(wk.pid, wk.reentry) {
		wk.failures++
	}
	if wk.csCrash {
		wk.csCrash = false
		rme.Crash(wk.pid)
	}
	wk.sink = spin(wk.w.csIters, wk.sink)
	wk.g.exit()
}

// next advances to the worker's next passage: it spends the seeded think
// time and returns the passage's crash placement.
func (wk *worker) next() uint8 {
	i := wk.seq % schedWords
	wk.seq++
	wk.requested++
	if t := wk.in.think[wk.pid][i]; t > 0 {
		wk.sink = spin(t, wk.sink)
	}
	return wk.in.crash[wk.pid][i]
}

// target is the system under test as the workers see it.
type target interface {
	// passage runs the worker's next passage of kind k in round r.
	passage(wk *worker, r int, k kind)
	// check verifies the target's own invariants after the run and
	// returns the number of violations, each described on stderr.
	check(ws []*worker) int64
}

// mutexTarget rotates the workers over fresh rme.Mutex instances.
type mutexTarget struct {
	ms     []*rme.Mutex
	guards []csGuard
	inj    *injector
	ctx    context.Context
}

func buildMutexTarget(w *workload) (*mutexTarget, error) {
	t := &mutexTarget{guards: make([]csGuard, instances), ctx: context.Background()}
	var opts []rme.Option
	if w.crashEvery > 0 {
		t.inj = newInjector(mutexN)
		opts = append(opts, rme.WithLabeledFailures(t.inj.hook))
	}
	for i := 0; i < instances; i++ {
		m, err := rme.New(mutexN, opts...)
		if err != nil {
			return nil, err
		}
		t.ms = append(t.ms, m)
	}
	return t, nil
}

func (t *mutexTarget) passage(wk *worker, r int, k kind) {
	i := r % len(t.ms)
	m := t.ms[i]
	wk.g = &t.guards[i]
	crash := wk.next()
	wk.reentry = false
	switch k {
	case kLock:
		if t.inj == nil {
			t0 := now()
			m.Lock(wk.pid)
			wk.cs()
			m.Unlock(wk.pid)
			wk.ser[kLock].add(now() - t0)
			wk.passages++
			return
		}
		t.inj.st[wk.pid].wantFAS = crash == crashFAS
		wk.csCrash = crash == crashInCS
		t0 := now()
		ok := m.Passage(wk.pid, wk.csFn)
		t.inj.st[wk.pid].wantFAS = false
		if ok {
			wk.ser[kLock].add(now() - t0)
			wk.passages++
			return
		}
		// Crashed: a fixed busy restart, then the recovery passage. A
		// crash inside the CS leaves the guard claimed by this process,
		// and bounded CS re-entry must bring it straight back.
		wk.crashes++
		wk.sink = spin(restartIts, wk.sink)
		wk.reentry = crash == crashInCS
		wk.csCrash = false
		t0 = now()
		if !m.Passage(wk.pid, wk.csFn) {
			fmt.Fprintf(errOut, "pid %d: unscheduled crash in a recovery passage\n", wk.pid)
			wk.failures++
			return
		}
		wk.ser[sRec].add(now() - t0)
		wk.passages++
	case kCtx:
		t0 := now()
		if err := m.LockCtx(t.ctx, wk.pid); err != nil {
			fmt.Fprintf(errOut, "pid %d: LockCtx returned %v without its context firing\n", wk.pid, err)
			wk.failures++
			return
		}
		wk.cs()
		m.Unlock(wk.pid)
		wk.ser[kCtx].add(now() - t0)
		wk.passages++
	case kTry:
		t0 := now()
		if !m.TryLockFor(wk.pid, time.Hour) {
			fmt.Fprintf(errOut, "pid %d: TryLockFor gave up before its deadline\n", wk.pid)
			wk.failures++
			return
		}
		wk.cs()
		m.Unlock(wk.pid)
		wk.ser[kTry].add(now() - t0)
		wk.passages++
	}
}

func (t *mutexTarget) check(ws []*worker) int64 {
	var counted, passages int64
	for i := range t.guards {
		counted += t.guards[i].count
	}
	for _, wk := range ws {
		passages += wk.passages
	}
	if counted != passages {
		fmt.Fprintf(errOut, "critical-section counter %d != completed passages %d\n", counted, passages)
		return 1
	}
	return 0
}

// mapTarget rotates the workers over fresh rme.Maps; each key has its
// own guard.
type mapTarget struct {
	ms     []*rme.Map
	guards [][]csGuard
	warm   int64 // passages run at set-up (first-touch key builds)
}

func buildMapTarget(w *workload, names []string) (*mapTarget, error) {
	t := &mapTarget{}
	for i := 0; i < maps; i++ {
		ma, err := rme.NewMap(w.workers)
		if err != nil {
			return nil, err
		}
		gs := make([]csGuard, keySpace)
		// First touch of the hot keys: lazy per-key lock builds are
		// set-up work, paid once per key, not per passage.
		for k := 0; k < hotKeys; k++ {
			ma.Lock(0, names[k])
			gs[k].enter(0, false)
			gs[k].exit()
			ma.Unlock(0, names[k])
			t.warm++
		}
		t.ms = append(t.ms, ma)
		t.guards = append(t.guards, gs)
	}
	return t, nil
}

func (t *mapTarget) passage(wk *worker, r int, k kind) {
	i := r % len(t.ms)
	ma := t.ms[i]
	key := wk.in.keys[wk.pid][wk.seq%len(wk.in.keys[wk.pid])]
	wk.g = &t.guards[i][key]
	wk.next()
	wk.reentry = false
	name := wk.in.names[key]
	t0 := now()
	ma.Lock(wk.pid, name)
	wk.cs()
	ma.Unlock(wk.pid, name)
	wk.ser[kLock].add(now() - t0)
	wk.passages++
}

func (t *mapTarget) check(ws []*worker) int64 {
	var bad, counted, passages int64
	for i, ma := range t.ms {
		for k := range t.guards[i] {
			counted += t.guards[i][k].count
		}
		bad += checkMapStats(ma)
	}
	for _, wk := range ws {
		passages += wk.passages
	}
	if counted != passages+t.warm {
		fmt.Fprintf(errOut, "critical-section counters %d != completed passages %d\n", counted, passages+t.warm)
		bad++
	}
	return bad
}

// checkMapStats verifies that a quiescent Map's lifecycle ledger adds
// up: every instantiated key is live or was evicted, shard rows sum to
// the totals, and the footprint is what the Map reports.
func checkMapStats(ma *rme.Map) int64 {
	s := ma.Stats()
	var bad int64
	fail := func(format string, args ...any) {
		fmt.Fprintf(errOut, "map stats: "+format+"\n", args...)
		bad++
	}
	if uint64(s.Keys)+s.Evictions != s.Instantiated {
		fail("keys %d + evictions %d != instantiated %d", s.Keys, s.Evictions, s.Instantiated)
	}
	if s.Recycled > s.Instantiated {
		fail("recycled %d > instantiated %d", s.Recycled, s.Instantiated)
	}
	var keys, segs int
	var inst, rec, ev uint64
	for _, sh := range s.Shards {
		keys += sh.Keys
		segs += sh.Segments
		inst += sh.Instantiated
		rec += sh.Recycled
		ev += sh.Evictions
	}
	if keys != s.Keys || segs != s.Segments || inst != s.Instantiated || rec != s.Recycled || ev != s.Evictions {
		fail("shard rows do not sum to the totals")
	}
	if s.Keys != ma.Len() || s.FootprintWords != ma.Footprint() {
		fail("keys %d / footprint %d disagree with Len %d / Footprint %d", s.Keys, s.FootprintWords, ma.Len(), ma.Footprint())
	}
	return bad
}

// newTarget builds one instance set of the workload.
func newTarget(w *workload, in *inputs) (target, error) {
	if w.keyed {
		return buildMapTarget(w, in.names)
	}
	return buildMutexTarget(w)
}

// buildTarget constructs the workload's instance set over and over for
// setupNs, each time from a collected heap, and returns the last set with
// the median build time in seconds. Single builds of one process range
// over 2.5× (first builds pay fresh page faults, later ones meet GC and
// scavenger work at random), so the median of a few builds jumped by a
// quarter between sets of runs; hundreds of builds (about a hundred for
// keyed) leave only the host's own drift.
func buildTarget(w *workload, in *inputs) (target, float64, error) {
	var t target
	var times []float64
	for deadline := now() + setupNs; len(times) < 3 || now() < deadline; {
		runtime.GC()
		t0 := now()
		var err error
		if t, err = newTarget(w, in); err != nil {
			return nil, 0, err
		}
		times = append(times, float64(now()-t0)/1e9)
	}
	runtime.GC()
	return t, median(times), nil
}

// e2eRun is the untraced run: the workload through the public rme API
// only, for d of timed wall time.
func e2eRun(w *workload, seed int64, d time.Duration) (*result, error) {
	in := genInputs(seed, w.workers, w)
	t, setup, err := buildTarget(w, in)
	if err != nil {
		return nil, err
	}
	ws := make([]*worker, w.workers)
	for p := range ws {
		ws[p] = newWorker(p, w, in)
	}
	// Every hostEvery rounds the leader runs a host reference burst,
	// whose time is taken out of the throughput's wall time.
	var host hostRef
	var hostNs int64
	start := now()
	deadline := start + int64(d)
	rs := newRounds(w.workers)
	rs.run(w.workers, func(r int) bool {
		if r%hostEvery == 0 {
			hostNs += host.burst()
		}
		return now() >= deadline
	}, func(pid, r int) {
		wk := ws[pid]
		for i := 0; i < w.block; i++ {
			t.passage(wk, r, w.order(r, i))
		}
	})
	wall := now() - start - hostNs

	res := &result{}
	var passages int64
	for _, wk := range ws {
		res.attempted += wk.requested
		res.failed += wk.failures
		if wk.passages+wk.failures < wk.requested {
			fmt.Fprintf(errOut, "pid %d: %d passages requested, %d completed\n", wk.pid, wk.requested, wk.passages)
			res.failed += wk.requested - wk.passages - wk.failures
		}
		res.crashes += wk.crashes
		passages += wk.passages
	}
	res.failed += t.check(ws)

	hist := func(k int) *latHist {
		h := newLatHist()
		for _, wk := range ws {
			wk.ser[k].into(h)
		}
		return h
	}
	lock := hist(int(kLock))
	res.add("passages_per_s", float64(passages)/float64(wall)*1e9, "1/s")
	res.add("passage_p50_ns", lock.quantile(0.50), "ns")
	res.add("passage_p99_ns", lock.quantile(0.99), "ns")
	ks := w.kinds()
	if ks[kCtx] {
		res.add("ctx_passage_p50_ns", hist(int(kCtx)).quantile(0.50), "ns")
	}
	if ks[kTry] {
		res.add("trylock_passage_p50_ns", hist(int(kTry)).quantile(0.50), "ns")
	}
	if w.crashEvery > 0 {
		rec := hist(sRec)
		res.add("recovery_p50_ns", rec.quantile(0.50), "ns")
		res.add("recovery_p99_ns", rec.quantile(0.99), "ns")
	}
	res.add("setup_s", setup, "s")
	res.add("failed_share", float64(res.failed)/float64(res.attempted), "ratio")
	res.host = host.ns()
	res.samples = lock.n
	return res, nil
}
