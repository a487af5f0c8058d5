// Package metrics is the passage-level observability layer: low-overhead
// per-process counters that turn the paper's adaptivity theorems into
// checkable, plottable facts at runtime.
//
// The paper's headline result is quantitative — O(1) RMRs per passage
// when no failures occurred recently, O(√F) when F recent failures have,
// never more than the base lock's T(n) (Theorems 5.17/5.18) — so the
// repository records, per passage:
//
//   - remote memory references on the native backend (exact CC-model
//     classification via memory.CountingPort, not a timing estimate);
//   - splitter fast-vs-slow path outcomes and splitter attempts;
//   - WR-Lock filter acquisitions (the sensitive FAS executions);
//   - the deepest BA-Lock level the passage reached;
//   - crash and recovery counts.
//
// A Recorder holds one cache-line-padded counter block per process
// (mirroring the native arena's home-stripe discipline: no two
// processes' hot counters share a line). The owning goroutine writes its
// block through atomics; Snapshot may be called from any goroutine at
// any time and always reads tear-free values. When metrics are disabled
// the lock takes a nil-Recorder fast path: a single nil check per
// passage boundary and unwrapped ports, so the cost is zero.
//
// The same Snapshot type is produced by the simulator
// (sim.Result.MetricsSnapshot), so logical-step counts from the
// RMR-exact simulator and measured counts from the native backend are
// directly comparable.
package metrics

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"rme/internal/memory"
)

const (
	// MaxLevels bounds the level histogram: levels 1..MaxLevels. A
	// BA-Lock for n processes has m+1 = ⌈log₂ n⌉+1 levels (counting the
	// base), so 16 covers every practical n; deeper escalations clamp
	// into the last bucket.
	MaxLevels = 16
	// RMRBuckets is the passage-RMR histogram size: counts 0..RMRBuckets-2
	// are exact, the last bucket collects every passage at or above
	// RMRBuckets-1 RMRs.
	RMRBuckets = 257
)

// proc is one process's counter block. Only the owning goroutine writes
// it; snapshotting goroutines read the atomics. The atomic arrays are
// large enough that blocks of adjacent processes share at most their
// boundary cache lines; the trailing pad removes even that.
type proc struct {
	attempts   atomic.Uint64 // passages started (completed + aborted + crashed)
	passages   atomic.Uint64 // completed (failure-free) passages
	crashes    atomic.Uint64
	crashedAtt atomic.Uint64 // attempts that ended in a crash
	aborted    atomic.Uint64 // attempts that ended in a back-out
	recoveries atomic.Uint64 // passages started with a prior crash pending
	fast       atomic.Uint64 // completed passages that stayed at level 1
	slow       atomic.Uint64 // completed passages that escalated
	tries      atomic.Uint64 // splitter attempts (":try" labels)
	filterFAS  atomic.Uint64 // filter-lock sensitive FAS executions (":fas" labels)
	rmrs       atomic.Uint64 // RMRs over all passages, including crashed ones
	ops        atomic.Uint64 // instructions over all passages, including crashed ones

	levels    [MaxLevels]atomic.Uint64
	hist      [RMRBuckets]atomic.Uint64
	abandoned [MaxLevels]atomic.Uint64  // deepest level of aborted attempts
	abortHist [RMRBuckets]atomic.Uint64 // RMR cost of aborted attempts (incl. back-out)

	// Private in-flight passage state (owner goroutine only).
	port     *memory.CountingPort
	open     bool
	crashed  bool // a crash has happened since the last completed passage
	level    int  // deepest level this passage has committed to
	markRMRs uint64
	markOps  uint64

	_ [8]uint64 // keep neighbouring blocks off this block's last line
}

// Recorder aggregates passage metrics for the n processes of one lock.
// Construct it with NewRecorder, wrap each process's port with
// Recorder.Port, and notify passage boundaries with PassageStart,
// PassageEnd and Crash (rme.Mutex does all of this when the WithMetrics
// option is set).
type Recorder struct {
	n      int
	levels int // total level count (m SALock levels + 1 for the base)
	vt     *memory.VersionTable
	procs  []proc
}

// NewRecorder returns a recorder for n processes of a lock with the
// given total level count (BALock.Levels()+1; use 1 for single-level
// locks), over an arena of the given word capacity.
func NewRecorder(n, levels, arenaCapacity int) *Recorder {
	if n < 1 {
		panic(fmt.Sprintf("metrics: NewRecorder n = %d", n))
	}
	if levels < 1 {
		levels = 1
	}
	if levels > MaxLevels {
		levels = MaxLevels
	}
	return &Recorder{
		n:      n,
		levels: levels,
		vt:     memory.NewVersionTable(arenaCapacity),
		procs:  make([]proc, n),
	}
}

// N returns the process count.
func (r *Recorder) N() int { return r.n }

// Levels returns the level-histogram depth.
func (r *Recorder) Levels() int { return r.levels }

// Port wraps process pid's native port with the counting layer feeding
// this recorder. It must be called once per process, before any
// passage.
func (r *Recorder) Port(inner *memory.NativePort) *memory.CountingPort {
	pid := inner.PID()
	p := r.proc(pid)
	p.port = memory.CountPort(inner, r.vt, func(label string) { r.label(pid, label) })
	return p.port
}

// InvalidateRange marks the words in [lo, hi) as new memory for every
// process: the next read of any of them is classified as an RMR
// regardless of what the process had cached. Keyed lock managers call it
// when a sub-arena region is recycled — the recycled words are a fresh
// lock's state, not stale copies of the old one.
func (r *Recorder) InvalidateRange(lo, hi memory.Addr) { r.vt.Invalidate(lo, hi) }

// counts returns the process's port traffic so far. A process whose port
// was never wrapped has none: an attempt recorded through PassageStart
// and Abort alone is one that gave up before touching the lock.
func (p *proc) counts() memory.OpCounts {
	if p.port == nil {
		return memory.OpCounts{}
	}
	return p.port.Counts()
}

func (r *Recorder) proc(pid int) *proc {
	if pid < 0 || pid >= r.n {
		panic(fmt.Sprintf("metrics: pid %d out of range [0,%d)", pid, r.n))
	}
	return &r.procs[pid]
}

// SlowLevel interprets an instruction label as a slow-path commitment:
// the core package labels the write committing level k's slow path
// "F<k>:slow", meaning the passage escalates to level k+1. It returns
// that level, or 0 if the label is not a slow-path commitment.
func SlowLevel(l string) int {
	if !strings.HasSuffix(l, ":slow") || !strings.HasPrefix(l, "F") {
		return 0
	}
	k, err := strconv.Atoi(l[1 : len(l)-len(":slow")])
	if err != nil || k < 1 {
		return 0
	}
	return k + 1
}

// IsFilterFAS reports whether the label marks a WR-Lock filter
// acquisition — an execution of the sensitive fetch-and-store.
func IsFilterFAS(l string) bool { return strings.HasSuffix(l, ":fas") }

// IsSplitterTry reports whether the label marks a splitter acquisition
// attempt.
func IsSplitterTry(l string) bool { return strings.HasSuffix(l, ":try") }

// IsHandoff reports whether the label marks a lock handoff — the
// release-side write that passes ownership directly to a waiting
// successor ("mcs:handoff", "F<k>:handoff", ...).
func IsHandoff(l string) bool { return strings.HasSuffix(l, ":handoff") }

// label observes one instruction label of process pid. Escalation labels
// follow the core package's naming: "F<k>:slow" commits level k's slow
// path (the passage has reached level k+1), "<name>:fas" is a filter
// lock's sensitive FAS, "<name>:try" a splitter attempt.
func (r *Recorder) label(pid int, l string) {
	p := &r.procs[pid]
	switch {
	case strings.HasSuffix(l, ":slow"):
		if lvl := SlowLevel(l); lvl != 0 && p.open && lvl > p.level {
			p.level = lvl
		}
	case IsFilterFAS(l):
		p.filterFAS.Add(1)
	case IsSplitterTry(l):
		p.tries.Add(1)
	}
}

// PassageStart marks the beginning of a passage (the start of Recover)
// for process pid. A passage still open from a previous PassageStart —
// possible only when a Lock call was unwound by an injected crash that
// the caller handled without going through Passage — is folded into the
// crash accounting first.
func (r *Recorder) PassageStart(pid int) {
	p := r.proc(pid)
	if p.open {
		r.closeCrashed(p)
	}
	if p.crashed {
		p.crashed = false
		p.recoveries.Add(1)
	}
	p.attempts.Add(1)
	p.open = true
	p.level = 1
	c := p.counts()
	p.markRMRs, p.markOps = c.RMRs, c.Ops
}

// PassageEnd marks the successful completion of a passage (the end of
// Exit): its RMR cost enters the histogram and its deepest level the
// level distribution.
func (r *Recorder) PassageEnd(pid int) {
	p := r.proc(pid)
	if !p.open {
		return
	}
	p.open = false
	c := p.port.Counts()
	rmrs := c.RMRs - p.markRMRs
	p.rmrs.Add(rmrs)
	p.ops.Add(c.Ops - p.markOps)
	b := rmrs
	if b >= RMRBuckets-1 {
		b = RMRBuckets - 1
	}
	p.hist[b].Add(1)
	lvl := p.level
	if lvl > MaxLevels {
		lvl = MaxLevels
	}
	p.levels[lvl-1].Add(1)
	if lvl == 1 {
		p.fast.Add(1)
	} else {
		p.slow.Add(1)
	}
	p.passages.Add(1)
}

// Crash records a failure of process pid. An open passage is closed as
// crashed (its traffic still counts toward the RMR and op totals, but
// not toward the per-passage histogram — it was not a passage, it was a
// fragment of one), and the process's CC cache contents are dropped:
// they are private state and do not survive.
func (r *Recorder) Crash(pid int) {
	p := r.proc(pid)
	if p.open {
		r.closeCrashed(p)
	}
	p.crashes.Add(1)
	p.crashed = true
	p.port.InvalidateCache()
}

func (r *Recorder) closeCrashed(p *proc) {
	p.open = false
	c := p.port.Counts()
	p.rmrs.Add(c.RMRs - p.markRMRs)
	p.ops.Add(c.Ops - p.markOps)
	p.crashedAtt.Add(1)
}

// Abort closes process pid's open passage as aborted: the attempt backed
// out of the acquisition instead of completing it. Its traffic —
// including the back-out protocol's own instructions — enters the
// abort-RMR histogram, and the deepest BA-Lock level the attempt had
// committed to enters the abandoned-level distribution. The per-passage
// RMR histogram is untouched: an aborted attempt is not a passage.
func (r *Recorder) Abort(pid int) {
	p := r.proc(pid)
	if !p.open {
		return
	}
	p.open = false
	c := p.counts()
	rmrs := c.RMRs - p.markRMRs
	p.rmrs.Add(rmrs)
	p.ops.Add(c.Ops - p.markOps)
	b := rmrs
	if b >= RMRBuckets-1 {
		b = RMRBuckets - 1
	}
	p.abortHist[b].Add(1)
	lvl := p.level
	if lvl > MaxLevels {
		lvl = MaxLevels
	}
	p.abandoned[lvl-1].Add(1)
	p.aborted.Add(1)
}

// Snapshot aggregates every process's counters into one tear-free view.
// It may be called from any goroutine while passages are in flight;
// in-flight passages are simply not included yet.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		LevelHist:    make([]uint64, r.levels),
		RMRHist:      Hist{Counts: make([]uint64, RMRBuckets)},
		AbortRMRHist: Hist{Counts: make([]uint64, RMRBuckets)},
	}
	for i := range r.procs {
		p := &r.procs[i]
		s.Attempts += p.attempts.Load()
		s.Passages += p.passages.Load()
		s.Crashes += p.crashes.Load()
		s.CrashedAttempts += p.crashedAtt.Load()
		s.Aborted += p.aborted.Load()
		s.Recoveries += p.recoveries.Load()
		s.FastPath += p.fast.Load()
		s.SlowPath += p.slow.Load()
		s.SplitterTries += p.tries.Load()
		s.FilterFAS += p.filterFAS.Load()
		s.RMRs += p.rmrs.Load()
		s.Ops += p.ops.Load()
		for l := 0; l < MaxLevels; l++ {
			if v := p.levels[l].Load(); v != 0 {
				for len(s.LevelHist) <= l {
					s.LevelHist = append(s.LevelHist, 0)
				}
				s.LevelHist[l] += v
			}
		}
		for l := 0; l < MaxLevels; l++ {
			if v := p.abandoned[l].Load(); v != 0 {
				for len(s.AbandonedHist) <= l {
					s.AbandonedHist = append(s.AbandonedHist, 0)
				}
				s.AbandonedHist[l] += v
			}
		}
		for b := 0; b < RMRBuckets; b++ {
			s.RMRHist.Counts[b] += p.hist[b].Load()
			s.AbortRMRHist.Counts[b] += p.abortHist[b].Load()
		}
	}
	return s
}
