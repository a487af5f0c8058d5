package rme

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"rme/internal/core"
	"rme/internal/flight"
	"rme/internal/memory"
	"rme/internal/metrics"
)

// driver is the passage layer both front-ends share. In the paper a
// passage is one Recover → Enter → CS → Exit run by one process against
// one BA-Lock; Mutex resolves that lock, the process's port and the
// metrics recorder by index, Map through its key engagement, and both
// then run the passage — including the abortable back-out and the crash
// unwind — through these methods. All recorder and flight-recorder
// accounting of a passage happens here.
type driver struct {
	n      int
	fail   memory.FailFunc  // nil unless WithFailures or WithLabeledFailures
	fr     *flight.Recorder // nil unless WithTracing
	aborts []abortFlag      // per-process cancellation flags (LockCtx)
}

// abortFlag is one process's cancellation flag, padded so neighbouring
// processes' flags never share a cache line. The flag lives outside the
// arena on purpose: it is private, ephemeral state — a crash is supposed
// to lose it — and polling it from the spin-loop Pause hook costs no
// shared-memory instruction, so the failure-free passage's RMR count is
// untouched.
type abortFlag struct {
	v atomic.Bool
	_ [56]byte
}

func newDriver(n int, cfg *config) driver {
	d := driver{n: n, aborts: make([]abortFlag, n)}
	if cfg.fail != nil || cfg.labelFail != nil {
		plain, labeled := cfg.fail, cfg.labelFail
		d.fail = func(pid int, op memory.OpInfo) bool {
			if plain != nil && plain(pid) {
				return true
			}
			return labeled != nil && labeled(pid, op.Label)
		}
	}
	if cfg.tracing {
		d.fr = flight.NewRecorder(n, cfg.tracingOpts.RingSize)
		if cfg.tracingOpts.Disabled {
			d.fr.SetEnabled(false)
		}
	}
	return d
}

func (d *driver) checkPID(pid int) {
	if pid < 0 || pid >= d.n {
		panic(fmt.Sprintf("rme: pid %d out of range [0,%d)", pid, d.n))
	}
}

// port wires process pid's port onto arena: failure injection, the
// abort-flag poll, label observation for the flight recorder, and the
// counting wrapper when rec is non-nil.
func (d *driver) port(arena *memory.NativeArena, pid int, rec *metrics.Recorder) memory.Port {
	np := arena.Port(pid, d.fail)
	flag := &d.aborts[pid].v
	np.SetAbortHook(func(int) bool { return flag.Load() })
	if fr := d.fr; fr != nil {
		np.SetLabelHook(func(l string) { fr.ObserveLabel(pid, l) })
	}
	if rec != nil {
		return rec.Port(np)
	}
	return np
}

// wire reports lk's pipeline phase transitions to the flight recorder.
func (d *driver) wire(lk *core.BALock) {
	if fr := d.fr; fr != nil {
		lk.SetPhaseHook(func(pid int, ph core.PhaseKind, level int) {
			fr.Phase(pid, flightPhaseKind(ph), level)
		})
	}
}

// flightPhaseKind maps a core pipeline phase to its flight event kind.
func flightPhaseKind(ph core.PhaseKind) flight.Kind {
	switch ph {
	case core.PhaseFilter:
		return flight.KindPhaseFilter
	case core.PhaseSplitter:
		return flight.KindPhaseSplitter
	case core.PhaseFast:
		return flight.KindPhaseFast
	case core.PhaseCore:
		return flight.KindPhaseCore
	case core.PhaseArbitrator:
		return flight.KindPhaseArbitrator
	}
	panic(fmt.Sprintf("rme: unknown phase %v", ph))
}

// start opens pid's attempt in both recorders.
func (d *driver) start(rec *metrics.Recorder, pid int) {
	if rec != nil {
		rec.PassageStart(pid)
	}
	if d.fr != nil {
		d.fr.PassageBegin(pid)
	}
}

// aborted closes pid's attempt as aborted in both recorders.
func (d *driver) aborted(rec *metrics.Recorder, pid int) {
	if rec != nil {
		rec.Abort(pid)
	}
	if d.fr != nil {
		d.fr.Abort(pid)
	}
}

// enter runs the Recover and Enter segments as pid.
func (d *driver) enter(lk *core.BALock, p memory.Port, rec *metrics.Recorder, pid int) {
	d.start(rec, pid)
	lk.Recover(p)
	lk.Enter(p)
	if d.fr != nil {
		d.fr.CSEnter(pid)
	}
}

// exit runs the Exit segment as pid and closes the passage.
func (d *driver) exit(lk *core.BALock, p memory.Port, rec *metrics.Recorder, pid int) {
	if d.fr != nil {
		d.fr.CSExit(pid)
	}
	lk.Exit(p)
	if rec != nil {
		rec.PassageEnd(pid)
	}
	if d.fr != nil {
		d.fr.PassageEnd(pid)
	}
}

// cancelled returns ctx.Err() and, when it is non-nil, records pid's
// attempt as opened and aborted without touching the lock, so abort-rate
// denominators match the cancelled-mid-spin path (a TryLockFor with a
// non-positive deadline lands here on every call).
func (d *driver) cancelled(ctx context.Context, rec *metrics.Recorder, pid int) error {
	err := ctx.Err()
	if err != nil {
		d.start(rec, pid)
		d.aborted(rec, pid)
	}
	return err
}

// enterCtx is enter giving up when ctx is cancelled; the caller has
// already checked ctx with cancelled. It returns nil holding the lock,
// or a non-nil error after backing pid out crash-safely, with the
// attempt closed as aborted — never as a passage, and with no CS events
// in the flight recording.
func (d *driver) enterCtx(ctx context.Context, lk *core.BALock, p memory.Port, rec *metrics.Recorder, pid int) error {
	d.start(rec, pid)
	if d.enterAborted(ctx, lk, p, pid) {
		lk.Abort(p)
		d.aborted(rec, pid)
		if err := ctx.Err(); err != nil {
			return err
		}
		// The flag was raised by an earlier attempt's watch outliving
		// its stop — impossible for a correctly serialized process, but
		// fail closed rather than report a phantom cancel.
		return context.Canceled
	}
	if err := ctx.Err(); err != nil {
		// Cancelled in the instant between the last spin and holding
		// the lock: the caller never gets the critical section, so
		// release and account the attempt as aborted.
		lk.Exit(p)
		d.aborted(rec, pid)
		return err
	}
	if d.fr != nil {
		d.fr.CSEnter(pid)
	}
	return nil
}

// enterAborted runs Recover+Enter while a context.AfterFunc callback
// mirrors ctx's cancellation into pid's abort flag, so the spin-loop
// Pause hook polls a plain atomic rather than the context. It converts
// pid's own ErrAbort unwind (raised by Pause when the flag is up) into a
// true return. The watch ends — and the flag is lowered — before it
// returns or unwinds, so neither a back-out's own Pause calls nor pid's
// next acquisition can trip over a stale flag. Any other panic, ErrCrash
// included, propagates.
func (d *driver) enterAborted(ctx context.Context, lk *core.BALock, p memory.Port, pid int) (aborted bool) {
	flag := &d.aborts[pid].v
	stop := context.AfterFunc(ctx, func() { flag.Store(true) })
	defer func() {
		unwatch(stop, flag)
		e := recover()
		if e == nil {
			return
		}
		if ab, ok := e.(memory.ErrAbort); ok && ab.PID == pid {
			aborted = true
			return
		}
		panic(e)
	}()
	lk.Recover(p)
	lk.Enter(p)
	return false
}

// unwatch ends a context.AfterFunc registration (stop is the function
// AfterFunc returned) and lowers flag, only once the callback can no
// longer raise it. When stop reports false the callback has started but
// may not have stored yet; lowering the flag before that store lands
// would leave it up to abort the process's next acquisition.
func unwatch(stop func() bool, flag *atomic.Bool) {
	if !stop() {
		for !flag.Load() {
			runtime.Gosched()
		}
	}
	flag.Store(false)
}

// crashed handles a panic e recovered from pid's passage: pid's own
// crash sentinel is recorded (in rec when non-nil, and in the flight
// recorder) and swallowed. Anything else — including an ErrCrash
// carrying a different PID, such as a Crash(otherPid) raised inside the
// critical section or a nested lock's injected failure unwinding
// through this one — is not this passage's failure and propagates.
func (d *driver) crashed(e any, rec *metrics.Recorder, pid int) {
	if crash, ok := e.(memory.ErrCrash); !ok || crash.PID != pid {
		panic(e)
	}
	if rec != nil {
		rec.Crash(pid)
	}
	if d.fr != nil {
		d.fr.Crash(pid)
	}
}

// N returns the number of processes.
func (d *driver) N() int { return d.n }

// SetTracing starts or stops flight recording at runtime. It is a no-op
// on a lock built without WithTracing (tracing cannot be enabled after
// construction: the instrumentation is wired at build time).
func (d *driver) SetTracing(on bool) {
	if d.fr != nil {
		d.fr.SetEnabled(on)
	}
}

// TracingEnabled reports whether flight recording is currently active.
func (d *driver) TracingEnabled() bool {
	return d.fr != nil && d.fr.Enabled()
}

// FlightRecording snapshots the flight recorder's ring buffers into a
// dumpable Recording (see cmd/rmetrace for rendering it); a Map's
// events from passages on every key interleave per process. It may be
// called from any goroutine while passages are in flight; concurrently
// overwritten events are dropped, never torn. The second result is false
// when the lock was built without WithTracing.
func (d *driver) FlightRecording() (*flight.Recording, bool) {
	if d.fr == nil {
		return nil, false
	}
	return d.fr.Snapshot(), true
}

// FlightProfile returns the phase-latency profile accumulated so far
// (wall-clock histograms per pipeline phase and BA-Lock level). The
// second result is false when the lock was built without WithTracing.
func (d *driver) FlightProfile() (flight.Profile, bool) {
	if d.fr == nil {
		return flight.Profile{}, false
	}
	return d.fr.Profile(), true
}
