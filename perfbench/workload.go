package main

import (
	"fmt"

	"rme/internal/metrics"
)

// Workload parameters. Every workload is a closed loop from one process
// with at most two workers, so a two-CPU host is never oversubscribed.
const (
	mutexN     = 8  // processes of the Mutex workloads' locks
	instances  = 16 // fresh Mutex instances a run rotates over
	maps       = 4  // fresh Maps the keyed workload rotates over
	keySpace   = 4096
	zipfS      = 1.1
	hotKeys    = 512     // keys touched at set-up: the Map's default resident slots
	setupNs    = 2e9     // set-up measurement time (see buildTarget)
	hostEvery  = 16      // rounds between host reference bursts
	restartIts = 1 << 12 // spin steps of a crashed worker's busy restart
)

// workload describes one named closed-loop workload. A round is block
// passages per worker on one instance; rounds rotate over the instances
// so heap placement averages out within a run, and the passage kinds of
// a round follow order so host phases hit every kind equally.
type workload struct {
	name         string
	workers      int
	keyed        bool
	block        int
	order        func(r, i int) kind
	csIters      int
	thinkMax     int
	crashEvery   int // mean passages between scheduled crashes (0: none)
	csCrashOneIn int // one scheduled crash in this many lands in the CS
}

// kinds reports which passage kinds the workload runs.
func (w *workload) kinds() [nKinds]bool {
	var ks [nKinds]bool
	for r := 0; r < int(nKinds); r++ {
		for i := 0; i < w.block; i++ {
			ks[w.order(r, i)] = true
		}
	}
	return ks
}

var workloads = []*workload{
	{
		// Lock, LockCtx and TryLockFor blocks of 256, the block order
		// rotating every round. The first passage of a block runs cold
		// (a fresh instance, another call's cache footprint) and several
		// times slower; blocks this long keep those passages under half
		// a percent of the samples, so that they do not set the p99.
		name: "uncontended", workers: 1, block: 768,
		order: func(r, i int) kind { return kind((i/256 + r) % int(nKinds)) },
	},
	{
		name: "contended", workers: 2, block: 128,
		order:   func(r, i int) kind { return kind(i % 2) },
		csIters: 48, thinkMax: 160,
	},
	{
		name: "recovery", workers: 2, block: 128,
		order:   func(r, i int) kind { return kLock },
		csIters: 48, thinkMax: 160,
		crashEvery: 16, csCrashOneIn: 4,
	},
	{
		name: "keyed", workers: 2, keyed: true, block: 128,
		order:   func(r, i int) kind { return kLock },
		csIters: 48,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// injector places the recovery workload's unsafe failures: a worker
// scheduled to crash arms itself on the next filter fetch-and-store label
// and crashes at the instruction after it, i.e. right after the
// sensitive FAS executed. Each process's state is touched only by the
// goroutine acting as that process.
type injector struct {
	st []injState
}

type injState struct {
	wantFAS, armed bool
	_              [62]byte
}

func newInjector(n int) *injector { return &injector{st: make([]injState, n)} }

// hook is an rme.LabeledFailFunc.
func (in *injector) hook(pid int, label string) bool {
	s := &in.st[pid]
	if s.armed {
		s.armed = false
		return true
	}
	if s.wantFAS && metrics.IsFilterFAS(label) {
		s.wantFAS, s.armed = false, true
	}
	return false
}
