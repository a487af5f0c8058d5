package memory

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func line(a Addr) int64 { return int64(a) / LineWords }

// TestPaddedLayoutSeparatesHomes is the core false-sharing guarantee: under
// the padded layout, no two processes' home allocations — the words they
// spin on locally — ever share a 64-byte cache line, no matter how the
// allocations interleave. HomeNone words get exclusive lines of their own.
func TestPaddedLayoutSeparatesHomes(t *testing.T) {
	const n = 8
	a := NewNativeArena(n, 64*LineWords)

	// Interleave allocations across homes the way real lock constructors
	// do (per-process state arrays allocated home by home, round-robin).
	owner := map[int64]int{} // line -> home that owns it (n = HomeNone)
	claim := func(addr Addr, nwords, home int) {
		t.Helper()
		for w := int64(addr); w < int64(addr)+int64(nwords); w++ {
			l := w / LineWords
			if prev, taken := owner[l]; taken && prev != home {
				t.Fatalf("line %d shared between home %d and home %d", l, prev, home)
			}
			owner[l] = home
		}
	}
	for round := 0; round < 3; round++ {
		for home := 0; home < n; home++ {
			claim(a.Alloc(1, home), 1, home)
		}
		claim(a.Alloc(1, HomeNone), 1, n)
	}
	// Multi-word allocations respect the same separation.
	for home := 0; home < n; home++ {
		claim(a.Alloc(3, home), 3, home)
	}
	claim(a.Alloc(LineWords+1, HomeNone), LineWords+1, n)

	// HomeNone allocations must be line-exclusive even against each other:
	// the last two claims above went to stripe "n" collectively, so check
	// pairwise directly.
	x := a.Alloc(1, HomeNone)
	y := a.Alloc(1, HomeNone)
	if line(x) == line(y) {
		t.Fatalf("two HomeNone allocations share line %d", line(x))
	}
}

// TestPaddedSameHomePacks verifies the flip side: a single process's words
// pack densely within its own lines (no 8x blowup for per-process state).
func TestPaddedSameHomePacks(t *testing.T) {
	a := NewNativeArena(2, 16*LineWords)
	first := a.Alloc(1, 0)
	for i := 1; i < LineWords; i++ {
		got := a.Alloc(1, 0)
		if int64(got) != int64(first)+int64(i) {
			t.Fatalf("alloc %d of home 0 = %d, want %d (dense packing)", i, got, int64(first)+int64(i))
		}
	}
}

func TestPaddedNullLineReserved(t *testing.T) {
	a := NewNativeArena(1, 8*LineWords)
	got := a.Alloc(1, 0)
	if got == Nil {
		t.Fatal("Alloc returned null")
	}
	if line(got) == 0 {
		t.Fatalf("allocation %d landed on the reserved null line", got)
	}
}

func TestNativeHomeValidation(t *testing.T) {
	a := NewNativeArena(2, 8*LineWords)
	mustPanic(t, "home too big", func() { a.Alloc(1, 2) })
	mustPanic(t, "home negative", func() { a.Alloc(1, -2) })
	u := NewNativeArena(2, 64, Unpadded())
	mustPanic(t, "home too big (unpadded)", func() { u.Alloc(1, 7) })
}

func TestUnpaddedLegacyLayout(t *testing.T) {
	a := NewNativeArena(4, 64, Unpadded())
	if a.Padded() {
		t.Fatal("Unpadded arena reports Padded")
	}
	// Dense, home-blind, sequential: the pre-optimization layout.
	if got := a.Alloc(3, 2); got != 1 {
		t.Fatalf("first alloc = %d, want 1", got)
	}
	if got := a.Alloc(1, HomeNone); got != 4 {
		t.Fatalf("second alloc = %d, want 4", got)
	}
	if got := a.Size(); got != 5 {
		t.Fatalf("Size = %d, want 5", got)
	}
}

// TestNativeSizerMatchesArena: replaying an allocation sequence against the
// sizer predicts the arena's physical footprint and addresses exactly —
// the property rme.New's capacity measurement depends on.
func TestNativeSizerMatchesArena(t *testing.T) {
	for _, padded := range []bool{true, false} {
		sizer := NewNativeSizer(4, padded)
		seq := []struct{ nwords, home int }{
			{1, 0}, {1, 1}, {1, 2}, {1, 3}, {1, HomeNone}, {4, 0}, {2, HomeNone},
			{1, 1}, {9, 2}, {1, 0}, {1, HomeNone}, {3, 3},
		}
		var want []Addr
		for _, s := range seq {
			want = append(want, sizer.Alloc(s.nwords, s.home))
		}
		var opts []NativeOption
		if !padded {
			opts = append(opts, Unpadded())
		}
		a := NewNativeArena(4, sizer.Words(), opts...)
		for i, s := range seq {
			got := a.Alloc(s.nwords, s.home)
			if got != want[i] {
				t.Fatalf("padded=%v alloc %d: arena %d, sizer %d", padded, i, got, want[i])
			}
		}
		if a.Size() != sizer.Words() {
			t.Fatalf("padded=%v footprint %d, sizer %d", padded, a.Size(), sizer.Words())
		}
	}
}

// portOps runs one operation of each kind through a port, so the tests of
// the inline guard cover every op.
var portOps = []struct {
	kind OpKind
	do   func(p *NativePort, a Addr)
}{
	{OpRead, func(p *NativePort, a Addr) { p.Read(a) }},
	{OpWrite, func(p *NativePort, a Addr) { p.Write(a, 7) }},
	{OpFAS, func(p *NativePort, a Addr) { p.FAS(a, 7) }},
	{OpCAS, func(p *NativePort, a Addr) { p.CAS(a, 0, 7) }},
}

// TestCachedBoundRefreshes: a port created before later allocations must
// still accept their addresses (an address at or past the cached bound
// refreshes it instead of panicking), and must still reject Nil and
// addresses beyond the arena — on every op kind, for fast ports and for
// ports whose fail hook sends every op through the slow path.
func TestCachedBoundRefreshes(t *testing.T) {
	never := func(int, OpInfo) bool { return false }
	for _, op := range portOps {
		for _, fail := range []FailFunc{nil, never} {
			a := NewNativeArena(1, 32*LineWords)
			p := a.Port(0, fail)
			x := a.Alloc(1, 0)
			op.do(p, x) // first op: bound cached
			y := a.Alloc(1, HomeNone)
			if int64(y) != p.bound {
				t.Fatalf("%s: new line at %d, cached bound %d; want the first address past it", op.kind, y, p.bound)
			}
			op.do(p, y) // just past the cached bound: must refresh, not panic
			if p.bound <= int64(y) {
				t.Fatalf("%s: bound %d not refreshed past %d", op.kind, p.bound, y)
			}
			if got := a.Peek(y); op.kind != OpRead && got != 7 {
				t.Fatalf("%s: op after refresh left %d, want 7", op.kind, got)
			}
			mustPanic(t, op.kind.String()+" still invalid after refresh", func() { op.do(p, Addr(31*LineWords)) })
			mustPanic(t, op.kind.String()+" nil", func() { op.do(p, Nil) })
		}
	}
}

// TestPortLabelGuard: a labeled op leaves the fast path — the label hook
// sees the label, then the fail hook sees it on the op — and the label is
// consumed, so the next unlabeled op reports "". A crash on the labeled
// op happens before its memory effect.
func TestPortLabelGuard(t *testing.T) {
	for _, op := range portOps {
		for _, withFail := range []bool{false, true} {
			a := NewNativeArena(1, 8*LineWords)
			x := a.Alloc(1, 0)
			var events []string
			var fail FailFunc
			if withFail {
				fail = func(pid int, o OpInfo) bool {
					if o.Kind != op.kind || o.Addr != x {
						t.Errorf("fail hook saw %s %d, want %s %d", o.Kind, o.Addr, op.kind, x)
					}
					events = append(events, "fail:"+o.Label)
					return o.Label != ""
				}
			}
			p := a.Port(0, fail)
			p.SetLabelHook(func(l string) { events = append(events, "label:"+l) })
			op.do(p, x) // caches the bound: only the label can leave the fast path
			a.words[x].Store(0)
			events = nil
			p.Label("F1:fas")
			func() {
				defer func() {
					e := recover()
					crash, ok := e.(ErrCrash)
					if withFail != ok || ok && crash.Op != (OpInfo{Kind: op.kind, Addr: x, Label: "F1:fas"}) {
						t.Fatalf("%s withFail=%v: labeled op panicked with %v", op.kind, withFail, e)
					}
				}()
				op.do(p, x)
			}()
			if withFail && a.Peek(x) != 0 {
				t.Fatalf("%s: crashed op took effect", op.kind)
			}
			op.do(p, x)
			want := []string{"label:F1:fas"}
			if withFail {
				want = append(want, "fail:F1:fas", "fail:")
			}
			if fmt.Sprint(events) != fmt.Sprint(want) {
				t.Fatalf("%s withFail=%v: hook events %q, want %q", op.kind, withFail, events, want)
			}
		}
	}
}

// TestNativePortLayout: ports fill whole 128-byte blocks, so ports
// allocated back to back — as rme.New and Map segments do — never share
// a cache line, and one process's per-op state never invalidates
// another's.
func TestNativePortLayout(t *testing.T) {
	if sz := unsafe.Sizeof(NativePort{}); sz%128 != 0 {
		t.Fatalf("NativePort is %d bytes, want a multiple of 128", sz)
	}
	const n = 16
	a := NewNativeArena(n, 8*LineWords)
	ports := make([]*NativePort, n) // kept live so no two share an address
	owner := map[uintptr]int{}
	for pid := range ports {
		ports[pid] = a.Port(pid, nil)
		lo := uintptr(unsafe.Pointer(ports[pid]))
		hi := lo + unsafe.Sizeof(*ports[pid])
		for l := lo / 64; l <= (hi-1)/64; l++ {
			if prev, taken := owner[l]; taken {
				t.Fatalf("ports %d and %d share cache line %#x", prev, pid, l*64)
			}
			owner[l] = pid
		}
	}
}

func TestPauseBackoffLadder(t *testing.T) {
	// Force the multicore path so the ladder is exercised even on a
	// single-CPU machine (where Pause skips spinning entirely).
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	a := NewNativeArena(1, 8*LineWords)
	p := a.Port(0, nil)
	// The ladder must cycle (spin, spin, ..., yield, reset) without
	// wedging; 1000 pauses cross the reset boundary many times.
	sawTop := false
	for i := 0; i < 1000; i++ {
		p.Pause()
		if p.spin > pauseSpinMax {
			t.Fatalf("spin ladder escaped its bound: %d", p.spin)
		}
		if p.spin == pauseSpinMax {
			sawTop = true
		}
	}
	if !sawTop {
		t.Fatal("spin ladder never reached its top rung")
	}

	// Legacy-layout ports and ports created on a uniprocessor must not
	// spin at all; the gate is fixed when the port is created.
	u := NewNativeArena(1, 8, Unpadded()).Port(0, nil)
	runtime.GOMAXPROCS(1)
	q := a.Port(0, nil)
	for i := 0; i < 10; i++ {
		q.Pause()
		u.Pause()
	}
	if q.spin != 0 || u.spin != 0 {
		t.Fatalf("non-spinning Pause advanced the spin ladder: uniprocessor %d, unpadded %d", q.spin, u.spin)
	}
}

// TestSnapshotWordsQuiescent: with no concurrent writers the verified
// snapshot equals the debug copy and restores bit for bit.
func TestSnapshotWordsQuiescent(t *testing.T) {
	a := NewNativeArena(2, 8*LineWords)
	x := a.Alloc(1, 0)
	y := a.Alloc(1, 1)
	p := a.Port(0, nil)
	p.Write(x, 7)
	p.Write(y, 9)

	ws, err := a.SnapshotWords()
	if err != nil {
		t.Fatalf("quiescent snapshot failed: %v", err)
	}
	if ws[x] != 7 || ws[y] != 9 {
		t.Fatalf("snapshot contents wrong: %v", ws)
	}
	debug := a.Words()
	if len(debug) != len(ws) {
		t.Fatalf("Words/SnapshotWords disagree on size: %d vs %d", len(debug), len(ws))
	}

	b := NewNativeArena(2, 8*LineWords)
	b.Alloc(1, 0)
	b.Alloc(1, 1)
	if err := b.SetWords(ws); err != nil {
		t.Fatalf("SetWords: %v", err)
	}
	if b.Peek(x) != 7 || b.Peek(y) != 9 {
		t.Fatal("restore lost values")
	}
	// Mismatched layout is rejected, not silently misapplied.
	c := NewNativeArena(2, 8*LineWords)
	if err := c.SetWords(ws); err == nil {
		t.Fatal("SetWords accepted a snapshot for a differently-sized arena")
	}
}

// TestSnapshotWordsDetectsWrite: a write landing between the two scans —
// the torn-snapshot hazard — is detected deterministically via the test
// seam.
func TestSnapshotWordsDetectsWrite(t *testing.T) {
	a := NewNativeArena(1, 8*LineWords)
	x := a.Alloc(1, 0)
	p := a.Port(0, nil)
	p.Write(x, 1)
	a.snapshotHook = func() { p.Write(x, 2) }
	if _, err := a.SnapshotWords(); !errors.Is(err, ErrTornSnapshot) {
		t.Fatalf("err = %v, want ErrTornSnapshot", err)
	}
	// And an allocation growing the arena mid-scan is torn too. (A
	// same-home alloc can fit inside the stripe's current line without
	// moving the bound — that is harmless by construction, since the
	// fresh words are zero and unwritten — so grow with a line-grabbing
	// HomeNone alloc.)
	a.snapshotHook = func() { a.Alloc(1, HomeNone) }
	if _, err := a.SnapshotWords(); !errors.Is(err, ErrTornSnapshot) {
		t.Fatalf("grow: err = %v, want ErrTornSnapshot", err)
	}
	a.snapshotHook = nil
	if _, err := a.SnapshotWords(); err != nil {
		t.Fatalf("arena unusable after torn snapshots: %v", err)
	}
}

// TestSnapshotWordsUnderRacingWriter: with a live concurrent writer,
// SnapshotWords either reports a torn snapshot or returns a copy — it must
// never panic or race (this test is meaningful under -race).
func TestSnapshotWordsUnderRacingWriter(t *testing.T) {
	a := NewNativeArena(1, 8*LineWords)
	x := a.Alloc(1, 0)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := a.Port(0, nil)
		for i := Word(0); !stop.Load(); i++ {
			p.Write(x, i)
		}
	}()
	for i := 0; i < 100; i++ {
		ws, err := a.SnapshotWords()
		if err == nil && int64(len(ws)) != a.bound() {
			t.Fatal("successful snapshot with wrong size")
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestNativeConcurrentAlloc: the striped allocator hands out disjoint
// memory under concurrent allocation from many goroutines (run with -race).
func TestNativeConcurrentAlloc(t *testing.T) {
	const n = 8
	const perProc = 64
	a := NewNativeArena(n, n*perProc*2*LineWords)
	var mu sync.Mutex
	got := map[Addr]int{}
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				home := pid
				if i%8 == 3 {
					home = HomeNone
				}
				addr := a.Alloc(2, home)
				mu.Lock()
				for w := addr; w < addr+2; w++ {
					if prev, dup := got[w]; dup {
						t.Errorf("word %d allocated to both %d and %d", w, prev, pid)
					}
					got[w] = pid
				}
				mu.Unlock()
			}
		}(pid)
	}
	wg.Wait()
}
