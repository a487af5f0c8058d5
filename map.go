package rme

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rme/internal/core"
	"rme/internal/memory"
	"rme/internal/metrics"
)

// Map is a keyed lock manager: a dynamic set of named recoverable
// mutexes for n processes, instantiated lazily and recycled as keys
// churn. Each key gets its own full BA-Lock — the same algorithm a
// Mutex wraps — built inside a sub-arena region carved from a shard's
// arena segment, so per-key locks keep the cache-line padding and
// deterministic NativeSizer-measured layout of a standalone Mutex.
//
// Keys hash over a power-of-two number of shards. A shard's mutex
// serializes only key-table bookkeeping (lookup, instantiation,
// eviction); passages themselves run lock-free through the per-key
// BA-Lock's ports, so contention on distinct keys never interacts.
//
// Key lifecycle: a key is instantiated on first acquisition, stays live
// while any process is engaged with it (acquiring, holding, or crashed
// mid-passage on it), and becomes evictable when idle. When a shard
// needs a region for a new key it reuses a recycled one, carves a fresh
// one from the current segment, or evicts the least-recently-used idle
// key — growing a new segment only when every live key is pinned. A
// region is recycled only at quiescence (no engaged process, no pending
// crashed claim), zeroed, and rebuilt in place; a process that crashed
// while holding or queued on a key therefore always finds its lock
// state intact when it recovers, no matter how many other keys churned
// in between.
//
// Process identifiers are 0..n-1 across the whole Map: at any moment at
// most one goroutine may act as a given process, and a process runs at
// most one passage (over all keys) at a time. A process that crashed
// mid-acquisition on one key may move on to other keys — the abandoned
// claim pins the old key until the process comes back and recovers it —
// but crashing inside a critical section requires recovering the same
// key first (bounded critical-section re-entry is per key).
type Map struct {
	driver
	cfg       config
	spec      core.LockSpec
	slotLines int // region length of one per-key lock, in cache lines
	slotWords int
	segSlots  int
	shards    []*mapShard
	mask      uint32
	cur       []curEntry
}

// curEntry is one process's current engagement, written only by the
// goroutine acting as that process. Padded so neighbouring processes'
// engagements never share a cache line.
type curEntry struct {
	e    *mapEntry
	p    memory.Port
	inCS bool
	_    [39]byte // pad to one cache line
}

// mapShard owns one slice of the key space: its key table, its arena
// segments, and its free list of recycled regions. All fields are
// guarded by mu except the segments' arenas themselves, which passages
// access through ports without locking.
type mapShard struct {
	m  *Map
	mu sync.Mutex

	entries  map[string]*mapEntry
	segments []*mapSegment
	free     []subSlot
	clock    uint64 // LRU stamp source

	// idle records the attempts cancelled before they engaged a key
	// of this shard (created on first use; nil without WithMetrics).
	idle *metrics.Recorder

	instantiated uint64 // keys built (fresh or into a recycled region)
	recycled     uint64 // instantiations that reused a recycled region
	evictions    uint64 // idle keys evicted
}

// mapSegment is one fixed-capacity arena a shard carves per-key regions
// from, with its own metrics recorder (per-key RMR accounting needs a
// version table covering the segment) and lazily created per-process
// ports.
type mapSegment struct {
	arena  *memory.NativeArena
	rec    *metrics.Recorder // nil unless WithMetrics
	ports  []memory.Port
	carved int
}

// subSlot is a carved region and the segment it belongs to.
type subSlot struct {
	seg *mapSegment
	sub *memory.SubArena
}

// mapEntry is one live key: its lock, its region, and its lifecycle
// accounting (all guarded by the owning shard's mu).
type mapEntry struct {
	key   string
	shard *mapShard
	slot  subSlot
	lock  *core.BALock

	refs     int    // processes engaged (cur[pid].e == this)
	pending  []bool // pending[pid]: crashed claim abandoned by pid
	npending int
	stamp    uint64 // last-use clock, for LRU eviction
}

// NewMap creates a keyed lock manager for n processes.
//
// Map-specific options are WithShards and WithSegmentSlots; the lock
// recipe options (WithBase, WithLevels), failure injection, WithMetrics
// and WithTracing apply to every per-key lock. WithUnpaddedArena,
// WithoutReclamation, WithSlack and WithCapacity do not apply to maps
// and are rejected: regions require the padded line discipline, and
// per-key locks must pool their queue nodes or a long-lived key's
// region would exhaust.
func NewMap(n int, opts ...Option) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("rme: NewMap(%d): need at least one process", n)
	}
	cfg := config{base: BaseTournament, reclamation: true}
	for _, o := range opts {
		o(&cfg)
	}
	switch {
	case cfg.unpadded:
		return nil, fmt.Errorf("rme: NewMap does not support WithUnpaddedArena (regions need the padded layout)")
	case !cfg.reclamation:
		return nil, fmt.Errorf("rme: NewMap does not support WithoutReclamation (per-key locks must pool queue nodes)")
	case cfg.slack != 0 || cfg.capacity != 0:
		return nil, fmt.Errorf("rme: NewMap does not support WithSlack/WithCapacity (regions are sized exactly)")
	case cfg.shards < 0:
		return nil, fmt.Errorf("rme: negative shard count %d", cfg.shards)
	case cfg.segSlots < 0:
		return nil, fmt.Errorf("rme: negative segment slot count %d", cfg.segSlots)
	}
	if cfg.shards == 0 {
		cfg.shards = 8
	}
	shards := 1
	for shards < cfg.shards {
		shards <<= 1
	}
	if cfg.segSlots == 0 {
		cfg.segSlots = 64
	}
	spec, err := cfg.lockSpec(n)
	if err != nil {
		return nil, err
	}
	cfg.levels = spec.Levels

	// Measure one per-key lock's region footprint; every region is
	// carved with exactly this line count and the construction replays
	// into it deterministically.
	szr := memory.NewSubSizer(n)
	spec.Build(szr, n)

	ma := &Map{
		driver:    newDriver(n, &cfg),
		cfg:       cfg,
		spec:      spec,
		slotLines: szr.Lines(),
		slotWords: szr.Lines() * memory.LineWords,
		segSlots:  cfg.segSlots,
		shards:    make([]*mapShard, shards),
		mask:      uint32(shards - 1),
		cur:       make([]curEntry, n),
	}
	for i := range ma.shards {
		ma.shards[i] = &mapShard{m: ma, entries: make(map[string]*mapEntry)}
	}
	return ma, nil
}

// SlotWords returns the region footprint of one per-key lock, in words.
func (ma *Map) SlotWords() int { return ma.slotWords }

// shardOf hashes key (FNV-1a) onto its shard.
func (ma *Map) shardOf(key string) *mapShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return ma.shards[h&ma.mask]
}

// newSegment builds one arena segment: the null line plus segSlots
// regions' worth of capacity.
func (ma *Map) newSegment() *mapSegment {
	capacity := (1 + ma.segSlots*ma.slotLines) * memory.LineWords
	sg := &mapSegment{
		arena: memory.NewNativeArena(ma.n, capacity),
		ports: make([]memory.Port, ma.n),
	}
	if ma.cfg.metrics {
		sg.rec = metrics.NewRecorder(ma.n, ma.cfg.levels+1, sg.arena.Capacity())
	}
	return sg
}

// slotFor hands out a region for a new key, in footprint order: a
// recycled region first, then an uncarved slot in the current segment,
// then the region of an evicted idle key, and only when every live key
// is pinned a fresh segment. Called under mu.
func (sh *mapShard) slotFor() subSlot {
	if k := len(sh.free); k > 0 {
		s := sh.free[k-1]
		sh.free = sh.free[:k-1]
		sh.recycled++
		return s
	}
	if k := len(sh.segments); k > 0 {
		if sg := sh.segments[k-1]; sg.carved < sh.m.segSlots {
			sg.carved++
			return subSlot{seg: sg, sub: sg.arena.Carve(sh.m.slotLines)}
		}
	}
	if s, ok := sh.evictLocked(); ok {
		sh.recycled++
		return s
	}
	sg := sh.m.newSegment()
	sh.segments = append(sh.segments, sg)
	sg.carved++
	return subSlot{seg: sg, sub: sg.arena.Carve(sh.m.slotLines)}
}

// evictLocked evicts the least-recently-used idle key (no engaged
// process, no pending crashed claim) and returns its recycled region.
func (sh *mapShard) evictLocked() (subSlot, bool) {
	var victim *mapEntry
	for _, e := range sh.entries {
		if e.refs == 0 && e.npending == 0 && (victim == nil || e.stamp < victim.stamp) {
			victim = e
		}
	}
	if victim == nil {
		return subSlot{}, false
	}
	delete(sh.entries, victim.key)
	sh.evictions++
	sh.recycle(victim.slot)
	return victim.slot, true
}

// recycle resets a region for reuse: zeroed words, restarted allocator,
// and — when metrics are on — the region's addresses marked as new
// memory so no process's CC cache survives into the next key's lock.
func (sh *mapShard) recycle(s subSlot) {
	s.sub.Reset()
	if s.seg.rec != nil {
		lo, hi := s.sub.Bounds()
		s.seg.rec.InvalidateRange(lo, hi)
	}
}

// idleRecorder returns the shard's recorder for attempts cancelled
// before they engaged a key, or nil without WithMetrics. Such attempts
// never touch a lock, so their recorder has no ports: each one counts as
// an aborted attempt with no traffic.
func (sh *mapShard) idleRecorder() *metrics.Recorder {
	if !sh.m.cfg.metrics {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.idle == nil {
		sh.idle = metrics.NewRecorder(sh.m.n, sh.m.cfg.levels+1, 1)
	}
	return sh.idle
}

// acquire looks up or instantiates key's entry and engages pid with it.
func (sh *mapShard) acquire(pid int, key string) *mapEntry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[key]
	if e == nil {
		slot := sh.slotFor()
		e = &mapEntry{
			key:     key,
			shard:   sh,
			slot:    slot,
			lock:    sh.m.spec.Build(slot.sub, sh.m.n),
			pending: make([]bool, sh.m.n),
		}
		sh.m.wire(e.lock)
		sh.entries[key] = e
		sh.instantiated++
	}
	if e.pending[pid] {
		e.pending[pid] = false
		e.npending--
	}
	e.refs++
	sh.clock++
	e.stamp = sh.clock
	if sg := e.slot.seg; sg.ports[pid] == nil {
		sg.ports[pid] = sh.m.port(sg.arena, pid, sg.rec)
	}
	return e
}

// begin resolves pid's engagement for a passage on key: a recovery
// continues the existing engagement (resumed is true); a crashed claim
// on a different key is parked as pending (pinning that key's region)
// before the new key is engaged.
func (ma *Map) begin(pid int, key string) (e *mapEntry, resumed bool) {
	ma.checkPID(pid)
	c := &ma.cur[pid]
	if c.e != nil {
		if c.e.key == key {
			return c.e, true
		}
		if c.inCS {
			panic(fmt.Sprintf("rme: process %d holds key %q; nested Map passages are not supported", pid, c.e.key))
		}
		old := c.e
		sh := old.shard
		sh.mu.Lock()
		if !old.pending[pid] {
			old.pending[pid] = true
			old.npending++
		}
		old.refs--
		sh.mu.Unlock()
		c.e, c.p = nil, nil
	}
	e = ma.shardOf(key).acquire(pid, key)
	c.e = e
	c.p = e.slot.seg.ports[pid]
	return e, false
}

// finish releases pid's engagement after a clean passage end or a
// completed back-out.
func (ma *Map) finish(pid int, e *mapEntry) {
	sh := e.shard
	sh.mu.Lock()
	e.refs--
	sh.mu.Unlock()
	c := &ma.cur[pid]
	c.e, c.p, c.inCS = nil, nil, false
}

// engagedRec returns the metrics recorder of the key pid is engaged
// with, or nil (no engagement, an out-of-range pid, or no WithMetrics).
func (ma *Map) engagedRec(pid int) *metrics.Recorder {
	if pid < 0 || pid >= ma.n || ma.cur[pid].e == nil {
		return nil
	}
	return ma.cur[pid].e.slot.seg.rec
}

// Lock acquires key's lock as process pid, instantiating the key if
// needed. Like Mutex.Lock it is the correct call both for first
// acquisition and for recovery after a failure on the same key.
func (ma *Map) Lock(pid int, key string) {
	e, _ := ma.begin(pid, key)
	c := &ma.cur[pid]
	ma.enter(e.lock, c.p, e.slot.seg.rec, pid)
	c.inCS = true
}

// Unlock releases key's lock as process pid.
func (ma *Map) Unlock(pid int, key string) {
	c := &ma.cur[pid]
	if c.e == nil || c.e.key != key {
		held := "nothing"
		if c.e != nil {
			held = fmt.Sprintf("%q", c.e.key)
		}
		panic(fmt.Sprintf("rme: process %d unlocking key %q but holds %s", pid, key, held))
	}
	e := c.e
	ma.exit(e.lock, c.p, e.slot.seg.rec, pid)
	ma.finish(pid, e)
}

// Passage runs one passage on key: Recover, Enter, cs, Exit. It reports
// false if an injected failure interrupted the passage, in which case
// the caller should retry with the same key (the crashed claim keeps
// the key pinned until recovered).
func (ma *Map) Passage(pid int, key string, cs func()) (ok bool) {
	defer func() {
		if e := recover(); e != nil {
			ma.crashed(e, ma.engagedRec(pid), pid)
			ok = false
		}
	}()
	ma.Lock(pid, key)
	cs()
	ma.Unlock(pid, key)
	return true
}

// LockCtx acquires key's lock as process pid, giving up when ctx is
// cancelled, with exactly Mutex.LockCtx's semantics and accounting:
// every cancelled attempt — pre-cancelled, mid-spin, or at the
// post-acquisition check — closes as one aborted attempt, never as a
// passage, and the process then holds nothing on the key. A
// pre-cancelled attempt never touches the lock, so it leaves an earlier
// crashed claim on key pinned and still owing its recovery; on a key pid
// is not engaged with it does not even look the key up, so it neither
// builds the key's lock nor evicts an idle key to make room for one.
func (ma *Map) LockCtx(ctx context.Context, pid int, key string) error {
	ma.checkPID(pid)
	if c := &ma.cur[pid]; c.e == nil || (c.e.key != key && !c.inCS) {
		if ctx.Err() != nil {
			return ma.cancelled(ctx, ma.shardOf(key).idleRecorder(), pid)
		}
	}
	e, resumed := ma.begin(pid, key)
	c := &ma.cur[pid]
	rec := e.slot.seg.rec
	if resumed {
		// The lock is left untouched, so a crashed claim on this key
		// still owes its recovery and stays engaged.
		if err := ma.cancelled(ctx, rec, pid); err != nil {
			return err
		}
	}
	if err := ma.enterCtx(ctx, e.lock, c.p, rec, pid); err != nil {
		ma.finish(pid, e)
		return err
	}
	c.inCS = true
	return nil
}

// TryLockFor acquires key's lock as process pid, giving up after d; a
// non-positive d counts one aborted attempt without touching the lock,
// exactly like Mutex.TryLockFor.
func (ma *Map) TryLockFor(pid int, key string, d time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return ma.LockCtx(ctx, pid, key) == nil
}

// PassageCtx runs one abortable passage on key; semantics follow
// Mutex.PassageCtx (ok=false with nil error on an injected crash,
// (false, ctx.Err()) on cancellation).
func (ma *Map) PassageCtx(ctx context.Context, pid int, key string, cs func()) (ok bool, err error) {
	defer func() {
		if e := recover(); e != nil {
			ma.crashed(e, ma.engagedRec(pid), pid)
			ok, err = false, nil
		}
	}()
	if err := ma.LockCtx(ctx, pid, key); err != nil {
		return false, err
	}
	cs()
	ma.Unlock(pid, key)
	return true, nil
}

// EvictIdle evicts up to max idle keys map-wide (all of them when max
// <= 0), recycling their regions onto the shards' free lists. Keys with
// an engaged process or a pending crashed claim are never touched. It
// returns the number evicted. Passages may run concurrently.
func (ma *Map) EvictIdle(max int) int {
	evicted := 0
	for _, sh := range ma.shards {
		sh.mu.Lock()
		for max <= 0 || evicted < max {
			s, ok := sh.evictLocked()
			if !ok {
				break
			}
			sh.free = append(sh.free, s)
			evicted++
		}
		sh.mu.Unlock()
	}
	return evicted
}

// Len returns the number of live keys.
func (ma *Map) Len() int {
	total := 0
	for _, sh := range ma.shards {
		sh.mu.Lock()
		total += len(sh.entries)
		sh.mu.Unlock()
	}
	return total
}

// Footprint returns the Map's physical shared-memory footprint in
// words: the full capacity of every arena segment. It grows only when a
// shard runs out of recyclable regions, never with the total number of
// distinct keys touched.
func (ma *Map) Footprint() int {
	total := 0
	for _, sh := range ma.shards {
		sh.mu.Lock()
		for _, sg := range sh.segments {
			total += sg.arena.Capacity()
		}
		sh.mu.Unlock()
	}
	return total
}

// MapShardStats is one shard's lifecycle accounting.
type MapShardStats struct {
	Keys         int    // live keys
	Segments     int    // arena segments
	Free         int    // recycled regions awaiting reuse
	Instantiated uint64 // keys built
	Recycled     uint64 // instantiations that reused a recycled region
	Evictions    uint64 // idle keys evicted
}

// MapStats aggregates the Map's lifecycle accounting.
type MapStats struct {
	Keys           int
	Segments       int
	FootprintWords int
	SlotWords      int
	Instantiated   uint64
	Recycled       uint64
	Evictions      uint64
	Shards         []MapShardStats
}

// Stats returns the Map's current lifecycle statistics.
func (ma *Map) Stats() MapStats {
	s := MapStats{SlotWords: ma.slotWords, Shards: make([]MapShardStats, len(ma.shards))}
	for i, sh := range ma.shards {
		sh.mu.Lock()
		ss := MapShardStats{
			Keys:         len(sh.entries),
			Segments:     len(sh.segments),
			Free:         len(sh.free),
			Instantiated: sh.instantiated,
			Recycled:     sh.recycled,
			Evictions:    sh.evictions,
		}
		for _, sg := range sh.segments {
			s.FootprintWords += sg.arena.Capacity()
		}
		sh.mu.Unlock()
		s.Shards[i] = ss
		s.Keys += ss.Keys
		s.Segments += ss.Segments
		s.Instantiated += ss.Instantiated
		s.Recycled += ss.Recycled
		s.Evictions += ss.Evictions
	}
	return s
}

// MetricsSnapshot merges every segment's passage metrics into one
// Map-wide view; the second result is false when the map was built
// without WithMetrics. Like Mutex.MetricsSnapshot it may be called
// while passages are in flight.
func (ma *Map) MetricsSnapshot() (metrics.Snapshot, bool) {
	if !ma.cfg.metrics {
		return metrics.Snapshot{}, false
	}
	snaps, _ := ma.ShardMetricsSnapshots()
	var s metrics.Snapshot
	for i, sh := range snaps {
		if i == 0 {
			s = sh
		} else {
			s = s.Merge(sh)
		}
	}
	return s, true
}

// ShardMetricsSnapshots returns one merged snapshot per shard (the
// Map's key-class granularity: keys hashing to the same shard share a
// snapshot). The second result is false without WithMetrics.
func (ma *Map) ShardMetricsSnapshots() ([]metrics.Snapshot, bool) {
	if !ma.cfg.metrics {
		return nil, false
	}
	out := make([]metrics.Snapshot, len(ma.shards))
	for i, sh := range ma.shards {
		sh.mu.Lock()
		recs := make([]*metrics.Recorder, 0, len(sh.segments)+1)
		for _, sg := range sh.segments {
			recs = append(recs, sg.rec)
		}
		if sh.idle != nil {
			recs = append(recs, sh.idle)
		}
		sh.mu.Unlock()
		for j, r := range recs {
			if j == 0 {
				out[i] = r.Snapshot()
			} else {
				out[i] = out[i].Merge(r.Snapshot())
			}
		}
	}
	return out, true
}
