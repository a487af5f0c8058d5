package main

import (
	"fmt"
	"sync/atomic"

	"rme/internal/core"
	"rme/internal/grlock"
	"rme/internal/memory"
	"rme/internal/metrics"
	"rme/internal/reclaim"
)

// The ledger rebuilds the exact rme.New recipe from its layers — a
// tournament-based BA-Lock built by core.LockSpec with reclaim.Pool node
// sources on a padded memory.NativeArena — and wraps the layers'
// public seams from outside: the base lock, the node sources and each
// process's port. Together with BALock.SetPhaseHook these mark the
// layer boundaries the layers expose, and each process keeps one flat
// timeline: every instant of a passage is charged to exactly one layer,
// the one whose span was entered last (so code with no hook of its own
// is charged to the span before it). A layer's self time is therefore
// its span time minus its child spans (node-source calls, base-lock
// calls, Pause waits).

// Ledger layers.
const (
	lyOutside  = iota // inside a passage but in no span: unattributed
	lyFilter          // WR-Lock filter (core.PhaseFilter)
	lySplitter        // splitter (core.PhaseSplitter)
	lyFast            // fast path (core.PhaseFast)
	lyCore            // slow path outside the base lock (core.PhaseCore)
	lyArb             // yalock arbitrator (core.PhaseArbitrator)
	lyExit            // the Exit segment outside child spans
	lyReclaim         // reclaim.Pool NewNode and Retire
	lyBase            // grlock tournament base lock
	lyPause           // Port.Pause: waiting
	lyCS              // the benchmark's own critical section
	lyRecorder        // metrics.Recorder passage boundaries
	lyBALock          // BALock Recover/Enter before the first phase hook
	nLayers
)

// ledgerProc is one process's timeline. Only the goroutine acting as
// the process touches it.
type ledgerProc struct {
	port  *tracedPort // the port of the instance the process is in
	cur   int
	mark  int64
	mOps  uint64
	mRMRs uint64

	ns      [nLayers]int64
	ops     [nLayers]uint64
	entries [nLayers]int64

	maxLevel   int
	splitters  int64 // splitter phases entered
	fastWins   int64 // of which won the fast path
	baseEnters int64 // base-lock Enter calls
	// rmrs counts completed passages by their RMRs, as the process's
	// tracedPort classified them.
	rmrs []uint64
	_    [64]byte
}

// switchTo charges the time and port traffic since the last switch to
// the current layer, makes l current and returns the previous layer.
func (lp *ledgerProc) switchTo(l int) int {
	t := now()
	lp.ns[lp.cur] += t - lp.mark
	lp.ops[lp.cur] += lp.port.ops - lp.mOps
	lp.mark, lp.mOps, lp.mRMRs = t, lp.port.ops, lp.port.rmrs
	prev := lp.cur
	lp.cur = l
	lp.entries[l]++
	return prev
}

// open starts a passage's timeline in layer l: time since the last
// passage (think time, the benchmark's bookkeeping) is charged to nothing.
func (lp *ledgerProc) open(l int) {
	lp.cur, lp.mark, lp.mOps, lp.mRMRs = l, now(), lp.port.ops, lp.port.rmrs
}

// ledger is the shared accounting of one traced instance set.
type ledger struct {
	procs []ledgerProc
}

func newLedger(n int) *ledger {
	lg := &ledger{procs: make([]ledgerProc, n)}
	for i := range lg.procs {
		lg.procs[i].rmrs = make([]uint64, metrics.RMRBuckets)
	}
	return lg
}

// rmrHist sums the processes' per-passage RMR counts.
func (lg *ledger) rmrHist() metrics.Hist {
	h := metrics.Hist{Counts: make([]uint64, metrics.RMRBuckets)}
	for i := range lg.procs {
		for b, c := range lg.procs[i].rmrs {
			h.Counts[b] += c
		}
	}
	return h
}

// pauses is the number of Pause calls over all processes.
func (lg *ledger) pauses() int64 {
	var n int64
	for i := range lg.procs {
		n += lg.procs[i].entries[lyPause]
	}
	return n
}

func (lg *ledger) phase(pid int, ph core.PhaseKind, level int) {
	lp := &lg.procs[pid]
	if level > lp.maxLevel {
		lp.maxLevel = level
	}
	switch ph {
	case core.PhaseFilter:
		lp.switchTo(lyFilter)
	case core.PhaseSplitter:
		lp.splitters++
		lp.switchTo(lySplitter)
	case core.PhaseFast:
		lp.fastWins++
		lp.switchTo(lyFast)
	case core.PhaseCore:
		lp.switchTo(lyCore)
	case core.PhaseArbitrator:
		lp.switchTo(lyArb)
	}
}

// tracedSource is the benchmark-side core.NodeSource around a
// reclaim.Pool: each call is a reclaim.alloc span.
type tracedSource struct {
	inner *reclaim.Pool
	lg    *ledger
}

func (s *tracedSource) NewNode(p memory.Port) memory.Addr {
	lp := &s.lg.procs[p.PID()]
	prev := lp.switchTo(lyReclaim)
	a := s.inner.NewNode(p)
	lp.switchTo(prev)
	return a
}

func (s *tracedSource) Retire(p memory.Port) {
	lp := &s.lg.procs[p.PID()]
	prev := lp.switchTo(lyReclaim)
	s.inner.Retire(p)
	lp.switchTo(prev)
}

// tracedBase wraps the grlock tournament: each call is a grlock.base span.
type tracedBase struct {
	inner *grlock.Tournament
	lg    *ledger
}

func (b *tracedBase) span(p memory.Port, f func(memory.Port)) {
	lp := &b.lg.procs[p.PID()]
	prev := lp.switchTo(lyBase)
	f(p)
	lp.switchTo(prev)
}

func (b *tracedBase) Recover(p memory.Port) { b.span(p, b.inner.Recover) }
func (b *tracedBase) Enter(p memory.Port) {
	b.lg.procs[p.PID()].baseEnters++
	b.span(p, b.inner.Enter)
}
func (b *tracedBase) Exit(p memory.Port) { b.span(p, b.inner.Exit) }

// tracedPort is the benchmark-side memory.Port around the recorder's
// memory.CountingPort. It makes every Pause a memory.pause span, and it
// counts the ops it forwards and classifies them under the CC model
// itself, with its own version table, so that the ledger's counts and
// the RMR anchor check do not read the program's counters: a write or
// RMW is always an RMR and invalidates every other copy; a read is an
// RMR iff the reader holds no valid copy.
type tracedPort struct {
	*memory.CountingPort
	lp        *ledgerProc
	ver       []atomic.Uint64 // write version per word, shared by an arena's ports
	seen      []uint64        // ver[a]+1 when a was last cached; 0 = not cached
	ops, rmrs uint64
}

func (t *tracedPort) Pause() {
	prev := t.lp.switchTo(lyPause)
	t.CountingPort.Pause()
	t.lp.switchTo(prev)
}

// wrote counts a write-class op on a. An op cut short by an injected
// crash panics before it gets here, so it is not counted.
func (t *tracedPort) wrote(a memory.Addr) {
	t.ops++
	t.rmrs++
	t.seen[a] = t.ver[a].Add(1) + 1
}

func (t *tracedPort) Read(a memory.Addr) memory.Word {
	w := t.CountingPort.Read(a)
	t.ops++
	if v := t.ver[a].Load() + 1; t.seen[a] != v {
		t.rmrs++
		t.seen[a] = v
	}
	return w
}

func (t *tracedPort) Write(a memory.Addr, v memory.Word) {
	t.CountingPort.Write(a, v)
	t.wrote(a)
}

func (t *tracedPort) FAS(a memory.Addr, v memory.Word) memory.Word {
	old := t.CountingPort.FAS(a, v)
	t.wrote(a)
	return old
}

func (t *tracedPort) CAS(a memory.Addr, old, new memory.Word) bool {
	ok := t.CountingPort.CAS(a, old, new)
	t.wrote(a)
	return ok
}

// crashed drops the process's cached copies: a cache does not survive
// a failure.
func (t *tracedPort) crashed() { clear(t.seen) }

// rebuilt is one instance of the rebuilt lock set: one arena holding
// count BA-Locks, with one port per process. Traced instances carry a
// metrics.Recorder (whose counting ports the ledger reads) and the
// wrapped seams; plain ones run bare native ports, like rme.New without
// options.
type rebuilt struct {
	locks []*core.BALock
	ports []memory.Port
	rec   *metrics.Recorder
	tps   []*tracedPort
}

// buildRebuilt builds count locks for n processes into one arena. lg nil
// builds the plain variant.
func buildRebuilt(n, count int, lg *ledger, fail memory.FailFunc) *rebuilt {
	spec := core.LockSpec{Levels: core.DefaultLevels(n)}
	if lg == nil {
		spec.Base = func(sp memory.Space, n int) core.RecoverableLock { return grlock.NewTournament(sp, n) }
		spec.Source = func(sp memory.Space, n, level int) core.NodeSource { return reclaim.NewPool(sp, n) }
	} else {
		spec.Base = func(sp memory.Space, n int) core.RecoverableLock {
			return &tracedBase{inner: grlock.NewTournament(sp, n), lg: lg}
		}
		spec.Source = func(sp memory.Space, n, level int) core.NodeSource {
			return &tracedSource{inner: reclaim.NewPool(sp, n), lg: lg}
		}
	}
	sizer := memory.NewNativeSizer(n, true)
	for i := 0; i < count; i++ {
		spec.Build(sizer, n)
	}
	arena := memory.NewNativeArena(n, sizer.Words())
	rb := &rebuilt{ports: make([]memory.Port, n)}
	for i := 0; i < count; i++ {
		bal := spec.Build(arena, n)
		if lg != nil {
			bal.SetPhaseHook(lg.phase)
		}
		rb.locks = append(rb.locks, bal)
	}
	if lg != nil {
		rb.rec = metrics.NewRecorder(n, spec.Levels+1, arena.Capacity())
	}
	var ver []atomic.Uint64
	if lg != nil {
		ver = make([]atomic.Uint64, arena.Capacity())
	}
	for pid := 0; pid < n; pid++ {
		np := arena.Port(pid, fail)
		if lg == nil {
			rb.ports[pid] = np
			continue
		}
		tp := &tracedPort{CountingPort: rb.rec.Port(np), lp: &lg.procs[pid],
			ver: ver, seen: make([]uint64, len(ver))}
		rb.tps = append(rb.tps, tp)
		rb.ports[pid] = tp
	}
	return rb
}

// rebuiltTarget drives rebuilt instances with the workload's own
// rotation, inputs and crash schedule. Every passage is a Lock passage:
// LockCtx and TryLockFor live in the rme layer, which the ledger does
// not rebuild (the probes time them). With lg set, each passage is
// traced and its RMRs counted at the benchmark's own boundaries.
type rebuiltTarget struct {
	sets   []*rebuilt
	lg     *ledger
	inj    *injector
	guards [][]csGuard
	keyed  bool
}

func buildRebuiltTarget(w *workload, traced bool) *rebuiltTarget {
	n, sets, count := mutexN, instances, 1
	if w.keyed {
		n, sets, count = w.workers, 1, keySpace
	}
	t := &rebuiltTarget{keyed: w.keyed}
	if traced {
		t.lg = newLedger(n)
	}
	var fail memory.FailFunc
	if w.crashEvery > 0 {
		t.inj = newInjector(n)
		fail = func(pid int, op memory.OpInfo) bool { return t.inj.hook(pid, op.Label) }
	}
	for i := 0; i < sets; i++ {
		rb := buildRebuilt(n, count, t.lg, fail)
		t.sets = append(t.sets, rb)
		t.guards = append(t.guards, make([]csGuard, count))
	}
	return t
}

// attempt runs Recover, Enter, the CS and Exit as process pid, returning
// false when an injected crash (in the lock or the CS) cut it short —
// the rebuilt counterpart of rme.Mutex.Passage.
func (t *rebuiltTarget) attempt(wk *worker, rb *rebuilt, bal *core.BALock) (ok bool) {
	p := rb.ports[wk.pid]
	defer func() {
		if e := recover(); e != nil {
			crash, crashed := e.(memory.ErrCrash)
			if !crashed || crash.PID != wk.pid {
				panic(e)
			}
			if rb.rec != nil {
				t.lg.procs[wk.pid].switchTo(lyOutside)
				rb.rec.Crash(wk.pid)
				rb.tps[wk.pid].crashed()
			}
			ok = false
		}
	}()
	var lp *ledgerProc
	var rmr0 uint64
	if t.lg != nil {
		lp = &t.lg.procs[wk.pid]
		lp.port = rb.tps[wk.pid]
		lp.open(lyRecorder)
		rmr0 = lp.mRMRs
		rb.rec.PassageStart(wk.pid)
		lp.switchTo(lyBALock)
	}
	bal.Recover(p)
	bal.Enter(p)
	if lp != nil {
		lp.switchTo(lyCS)
	}
	wk.cs()
	if lp != nil {
		lp.switchTo(lyExit)
	}
	bal.Exit(p)
	if lp != nil {
		lp.switchTo(lyRecorder)
		rb.rec.PassageEnd(wk.pid)
		rmrs := lp.mRMRs - rmr0
		if rmrs >= uint64(len(lp.rmrs)) {
			rmrs = uint64(len(lp.rmrs) - 1)
		}
		lp.rmrs[rmrs]++
		lp.switchTo(lyOutside)
	}
	return true
}

func (t *rebuiltTarget) passage(wk *worker, r int, _ kind) {
	si := r % len(t.sets)
	rb := t.sets[si]
	li := 0
	if t.keyed {
		li = int(wk.in.keys[wk.pid][wk.seq%len(wk.in.keys[wk.pid])])
	}
	bal := rb.locks[li]
	wk.g = &t.guards[si][li]
	crash := wk.next()
	wk.reentry = false
	if t.inj != nil {
		t.inj.st[wk.pid].wantFAS = crash == crashFAS
		wk.csCrash = crash == crashInCS
	}
	t0 := now()
	ok := t.attempt(wk, rb, bal)
	if t.inj != nil {
		t.inj.st[wk.pid].wantFAS = false
	}
	if ok {
		wk.ser[kLock].add(now() - t0)
		wk.passages++
		return
	}
	wk.fragNs += now() - t0
	wk.crashes++
	wk.sink = spin(restartIts, wk.sink)
	wk.reentry = crash == crashInCS
	wk.csCrash = false
	t0 = now()
	if !t.attempt(wk, rb, bal) {
		fmt.Fprintf(errOut, "pid %d: unscheduled crash in a rebuilt recovery passage\n", wk.pid)
		wk.failures++
		return
	}
	wk.ser[sRec].add(now() - t0)
	wk.passages++
}

func (t *rebuiltTarget) check(ws []*worker) int64 {
	var counted, passages int64
	for _, gs := range t.guards {
		for i := range gs {
			counted += gs[i].count
		}
	}
	for _, wk := range ws {
		passages += wk.passages
	}
	if counted != passages {
		fmt.Fprintf(errOut, "rebuilt: critical-section counters %d != completed passages %d\n", counted, passages)
		return 1
	}
	return 0
}
