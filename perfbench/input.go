package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// kind is the acquisition call a passage uses.
type kind int

const (
	kLock kind = iota // Lock (or Passage) + Unlock
	kCtx              // LockCtx with a context that never fires + Unlock
	kTry              // TryLockFor with a deadline that never expires + Unlock
	nKinds
	sRec    = int(nKinds) // series index of recovery passages
	nSeries = sRec + 1
)

// Crash placements of the recovery workload's schedule.
const (
	crashNone  = iota
	crashFAS   // unsafe failure: the instruction right after a filter FAS
	crashInCS  // rme.Crash inside the critical section
	schedWords = 4096
)

// inputs is everything a run derives from its seed, generated before any
// timing starts. Each worker cycles through its own arrays.
type inputs struct {
	think [][]int   // busy-loop iterations between passages, per worker
	crash [][]uint8 // crash placement per passage, per worker (recovery)
	keys  [][]int32 // key index per passage, per worker (keyed)
	names []string  // key strings (keyed)
}

func genInputs(seed int64, workers int, w *workload) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for p := 0; p < workers; p++ {
		think := make([]int, schedWords)
		for i := range think {
			if w.thinkMax > 0 {
				think[i] = rng.Intn(w.thinkMax)
			}
		}
		in.think = append(in.think, think)
		crash := make([]uint8, schedWords)
		if w.crashEvery > 0 {
			for i := range crash {
				if rng.Intn(w.crashEvery) == 0 {
					crash[i] = crashFAS
					if rng.Intn(w.csCrashOneIn) == 0 {
						crash[i] = crashInCS
					}
				}
			}
		}
		in.crash = append(in.crash, crash)
	}
	if w.keyed {
		for i := 0; i < keySpace; i++ {
			in.names = append(in.names, fmt.Sprintf("key-%04d", i))
		}
		for p := 0; p < workers; p++ {
			z := rand.NewZipf(rng, zipfS, 1, keySpace-1)
			seq := make([]int32, 1<<16)
			for i := range seq {
				seq[i] = int32(z.Uint64())
			}
			in.keys = append(in.keys, seq)
		}
	}
	return in
}

// spin is fixed busy work: xorshift steps the compiler cannot elide,
// because the result feeds a per-worker sink.
func spin(iters int, x uint64) uint64 {
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// csGuard is the critical section's correctness witness: an owner word
// set on entry and cleared on exit (a second process finding it set is a
// mutual-exclusion violation) and a plain counter that loses updates
// under a violation, so its total must equal the completed passages.
type csGuard struct {
	owner atomic.Int32
	count int64
	_     [52]byte
}

// enter claims the guard for pid. reentry allows finding pid's own claim,
// which a crash inside the critical section leaves behind (bounded
// critical-section re-entry). It reports false on a violation.
func (g *csGuard) enter(pid int, reentry bool) bool {
	prev := g.owner.Swap(int32(pid + 1))
	return prev == 0 || (reentry && prev == int32(pid+1))
}

func (g *csGuard) exit() {
	g.count++
	g.owner.Store(0)
}

// barrier is a reusable spin barrier for the workers of one run. Rounds
// are short, so the waiters spin with Gosched instead of parking.
type barrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Int32
}

func (b *barrier) wait() {
	if b.n <= 1 {
		return
	}
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	for b.gen.Load() == g {
		runtime.Gosched()
	}
}

// rounds drives a closed loop of synchronized rounds: every worker calls
// step(r) for r = 0, 1, ... until the leader (worker 0) sees the
// deadline pass, and all workers stop at the same round. stopRound only
// ever moves from "never" to the leader's current round, so a worker
// still reading round r sees either "never", r, or r+1 — all consistent.
type rounds struct {
	bar       barrier
	stopRound atomic.Int64
}

func newRounds(workers int) *rounds {
	r := &rounds{bar: barrier{n: int32(workers)}}
	r.stopRound.Store(1 << 62)
	return r
}

// run executes step on every worker goroutine and returns when all have
// stopped. Before each round the leader calls expired, while the other
// workers wait at the barrier; it reports whether the run is over.
func (rs *rounds) run(workers int, expired func(r int) bool, step func(pid, r int)) {
	var wg sync.WaitGroup
	for pid := 0; pid < workers; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for r := 0; ; r++ {
				if pid == 0 && expired(r) {
					rs.stopRound.Store(int64(r))
				}
				rs.bar.wait()
				if int64(r) >= rs.stopRound.Load() {
					return
				}
				step(pid, r)
			}
		}(pid)
	}
	wg.Wait()
}

// hostRef times bursts of uncontended sync.Mutex passages: the in-run
// reference that shows host drift next to the results. It is context,
// never a normaliser.
type hostRef struct {
	mu      sync.Mutex
	samples []float64
}

// burst runs one burst and returns the nanoseconds it took.
func (h *hostRef) burst() int64 {
	const iters = 128
	t0 := now()
	for i := 0; i < iters; i++ {
		h.mu.Lock()
		h.mu.Unlock()
	}
	d := now() - t0
	h.samples = append(h.samples, float64(d)/iters)
	return d
}

func (h *hostRef) ns() float64 { return median(h.samples) }
