package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"unsafe"

	"repro/internal/telemetry"
)

// This file implements warm-state snapshot reuse. Where the first run
// under a warm key stops, at the end of its measurement window, the
// machine's entire simulated state (hierarchy, prefetchers, per-core
// pipeline state, the sampler's bookkeeping and series) is deep-copied
// into a process-wide cache under that key, with the window's target.
// A later run with the same key that can continue it (canContinue)
// restores the copy, fast-forwards its trace readers by replaying the
// number of records the first run consumed, and steps only the
// instructions its longer window adds. The result is exact: the
// measurement window always sustains contention (Machine.phase), so
// the global instruction order and every shared-state access up to the
// first run's stopping point are the same for any target. The key
// covers everything else that shapes the state (see Options.WarmKey),
// and the restore is a deep copy: the cached snapshot is never aliased
// by a running machine.
//
// The deep copier is reflection-based and deliberately conservative:
// it refuses any state it does not know how to duplicate (non-nil
// function values, channels, unsafe pointers), so a future field that
// would break value semantics disables reuse (the run falls back to a
// cold warmup) instead of corrupting results. Pointers are copied once
// each, so the hierarchy's interface views of its prefetchers land on
// the copied prefetchers. One field is skipped by name: each core's
// trace reader (readers hold rng state that must not be shared; they
// are fast-forwarded by replay instead).

// warmState is what a snapshot deep-copies: the machine's simulated
// state, and its sampler's bookkeeping and the samples the run recorded
// (zero and nil when it sampled nothing).
type warmState struct {
	hier   *hierarchy
	cores  []*coreState // reader fields nil; consumed counts preserved
	samp   sampleState
	series []telemetry.Sample
}

// warmSnapshot is one cached machine state, taken where its run's
// measurement window ended. state is a pristine deep copy owned by the
// cache; restores copy it again, so a snapshot can seed any number of
// runs.
type warmSnapshot struct {
	state  *warmState
	steps  uint64 // instructions stepped to reach this state
	target uint64 // the measurement window the run stopped at
	every  uint64 // the run's sampling interval, 0 if it sampled nothing
	sig    string // structural signature double-checking the caller's key
	bytes  int64  // approximate heap bytes, for cache accounting
}

// WarmCache is the process-wide snapshot store. It is size-bounded
// (approximate bytes, least-recently-used eviction) and safe for
// concurrent use by parallel runs.
type WarmCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	snaps  map[string]*warmSnapshot
	order  []string // LRU order, oldest first
	hits   uint64
	misses uint64
	stores uint64
	// restored sums the steps of the snapshots restores copied: the
	// instructions those runs did not simulate.
	restored uint64
}

// DefaultWarmCacheBytes bounds the default process-wide cache. It is
// sized from measured reuse, not from what fits: replaying the service
// benchmark's job sequence at seeds 1, 2, 7 and 501, no restore needed
// an LRU stack distance above 59.6 MiB with snapshots taken where each
// prefix's first run stopped (50.6 MiB when they were taken after
// warmup), so this is still the smallest power of two above it. A
// larger budget keeps only snapshots that nothing restores, and their
// bytes set the service's peak RSS (see EXPERIMENTS.md, "Warm-state
// snapshot reuse").
const DefaultWarmCacheBytes = 64 << 20

var processWarmCache = NewWarmCache(DefaultWarmCacheBytes)

// GlobalWarmCache returns the process-wide cache used by runs whose
// Options name a WarmKey.
func GlobalWarmCache() *WarmCache { return processWarmCache }

// NewWarmCache returns an empty cache bounded to roughly budget bytes.
func NewWarmCache(budget int64) *WarmCache {
	return &WarmCache{budget: budget, snaps: make(map[string]*warmSnapshot)}
}

// Stats reports cache activity: runs that restored a snapshot, lookups
// that did not (no snapshot held, or one the run could not continue),
// and snapshots stored.
func (wc *WarmCache) Stats() (hits, misses, stores uint64) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.hits, wc.misses, wc.stores
}

// RestoredInstructions reports the instructions restores skipped: the
// sum, over every restore, of the instructions its snapshot's run had
// stepped.
func (wc *WarmCache) RestoredInstructions() uint64 {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.restored
}

// HeldBytes reports the approximate heap bytes of the snapshots the
// cache currently holds.
func (wc *WarmCache) HeldBytes() int64 {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.used
}

// Reset drops every cached snapshot and zeroes the stats counters
// (tests and benchmarks that need a known-cold cache).
func (wc *WarmCache) Reset() {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wc.snaps = make(map[string]*warmSnapshot)
	wc.order = nil
	wc.used = 0
	wc.hits, wc.misses, wc.stores, wc.restored = 0, 0, 0, 0
}

// get looks up key and refreshes its recency. It counts nothing: the
// caller counts the outcome with countLookup once it knows whether the
// snapshot could be used.
func (wc *WarmCache) get(key string) *warmSnapshot {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	s := wc.snaps[key]
	if s != nil {
		wc.touch(key)
	}
	return s
}

// holds reports whether key has a snapshot, leaving its recency as is.
func (wc *WarmCache) holds(key string) bool {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.snaps[key] != nil
}

// countLookup counts one lookup's outcome: a hit only when a run
// actually restored snap, whose steps it then skipped, and a miss, with
// snap nil, for everything else (no snapshot, a signature mismatch, a
// run that cannot continue the snapshot, a failed copy).
func (wc *WarmCache) countLookup(snap *warmSnapshot) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if snap != nil {
		wc.hits++
		wc.restored += snap.steps
	} else {
		wc.misses++
	}
}

func (wc *WarmCache) put(key string, s *warmSnapshot) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if old := wc.snaps[key]; old != nil {
		// Concurrent runs of the same prefix race to store, each where
		// its own window ended; first write wins and stays LRU-fresh,
		// so a prefix keeps one snapshot.
		wc.touch(key)
		return
	}
	if s.bytes > wc.budget {
		return // larger than the whole cache: not worth thrashing
	}
	for wc.used+s.bytes > wc.budget && len(wc.order) > 0 {
		oldest := wc.order[0]
		wc.order = wc.order[1:]
		if ev := wc.snaps[oldest]; ev != nil {
			wc.used -= ev.bytes
			delete(wc.snaps, oldest)
		}
	}
	wc.snaps[key] = s
	wc.order = append(wc.order, key)
	wc.used += s.bytes
	wc.stores++
}

func (wc *WarmCache) touch(key string) {
	for i, k := range wc.order {
		if k == key {
			copy(wc.order[i:], wc.order[i+1:])
			wc.order[len(wc.order)-1] = key
			return
		}
	}
}

// warmEligible reports whether this run may participate in snapshot
// reuse. An attached event trace binds prefetchers to an external sink
// a deep copy cannot re-bind, and the invariant checker's polling
// points would be skipped by a restore, so both disable reuse. A
// snapshot carries its run's sampler state and series (a sampled run
// restores only a snapshot sampled at its interval), and progress sinks
// count only what a run steps, so both stay compatible.
func (m *Machine) warmEligible() bool {
	if m.opts.WarmKey == "" || m.opts.WarmupInstructions == 0 {
		return false
	}
	if m.opts.CheckEvery > 0 {
		return false
	}
	if m.opts.Telemetry != nil && m.opts.Telemetry.Events != nil {
		return false
	}
	return true
}

// warmSignature is the simulator-side identity of the warm prefix:
// everything Options contributes to warm state except the prefetcher
// and workload configuration, which only the caller can name (they are
// interfaces here) and which WarmKey must therefore cover. A key
// collision across different machine shapes is still caught by this
// signature rather than corrupting a run.
func (m *Machine) warmSignature() string {
	return fmt.Sprintf("%+v/warm%d/pol%s/dram%v/ncl%v/cores%d",
		m.opts.Machine, m.opts.WarmupInstructions, m.opts.LLCPolicy,
		m.opts.Machine.Cores > 1, m.opts.NoCapacityLoss, len(m.cores))
}

// saveWarm deep-copies the machine's state where its run stopped into
// the process cache, unless the key already has a snapshot (first write
// wins, so the copy would be dropped). Failures (a prefetcher grew
// state the copier refuses) are silent: the run's result stands and
// later runs simulate cold.
func (m *Machine) saveWarm() {
	if processWarmCache.holds(m.opts.WarmKey) {
		return
	}
	snap, err := m.snapshot()
	if err != nil {
		return
	}
	processWarmCache.put(m.opts.WarmKey, snap)
}

// canContinue reports whether this run may resume snap: the same
// machine shape, a target at least the snapshot's, no core that already
// reached this run's target in the snapshot run's sustain tail (nothing
// froze its counters there), and, if this run samples, the snapshot's
// sampling interval. Any other run simulates cold and counts a miss.
func (m *Machine) canContinue(snap *warmSnapshot) bool {
	target := m.opts.MeasureInstructions
	if snap == nil || snap.sig != m.warmSignature() || len(snap.state.cores) != len(m.cores) || snap.target > target {
		return false
	}
	if every := m.sampleEvery(); every != 0 && every != snap.every {
		return false
	}
	if target > snap.target {
		for _, cs := range snap.state.cores {
			if cs.instructions >= target {
				return false
			}
		}
	}
	return true
}

// tryRestoreWarm restores the cached snapshot for this machine's key
// when the run can continue it (canContinue). It returns false (leaving
// the machine untouched) otherwise or when the copy fails. Either way
// it counts the outcome in the process cache's stats.
func (m *Machine) tryRestoreWarm() (ok bool) {
	snap := processWarmCache.get(m.opts.WarmKey)
	defer func() {
		if !ok {
			snap = nil
		}
		processWarmCache.countLookup(snap)
	}()
	if !m.canContinue(snap) {
		return false
	}
	sv, err := newCopier().copyValue(reflect.ValueOf(snap.state))
	if err != nil {
		return false
	}
	st := sv.Interface().(*warmState)
	// Point of no return: mutate the machine.
	m.hier = st.hier
	m.cores = st.cores
	m.steps = snap.steps
	longer := m.opts.MeasureInstructions > snap.target
	for i, cs := range m.cores {
		cs.reader = m.opts.Workloads[i]
		for n := uint64(0); n < cs.consumed; n++ {
			cs.reader.Next()
		}
		// Every core is short of the longer target (canContinue), so
		// each runs on and freezes there; an equal target keeps the
		// counters frozen at the snapshot run's finish line.
		if longer {
			cs.finished = false
		}
	}
	if m.sampleEvery() != 0 {
		m.samp = st.samp
		for _, smp := range st.series {
			m.sampler.Add(smp)
		}
	}
	return true
}

// snapshot deep-copies the machine's current simulated state, with the
// sampler's bookkeeping and the samples this run recorded.
func (m *Machine) snapshot() (*warmSnapshot, error) {
	every := m.sampleEvery()
	var series []telemetry.Sample
	if every != 0 {
		// This run recorded the sampler's last samp.idx samples.
		all := m.sampler.Samples()
		series = all[len(all)-m.samp.idx:]
	}
	c := newCopier()
	c.max = maxSnapshotBytes
	sv, err := c.copyValue(reflect.ValueOf(&warmState{m.hier, m.cores, m.samp, series}))
	if err != nil {
		return nil, err
	}
	return &warmSnapshot{
		state:  sv.Interface().(*warmState),
		steps:  m.steps,
		target: m.opts.MeasureInstructions,
		every:  every,
		sig:    m.warmSignature(),
		bytes:  c.bytes,
	}, nil
}

// --- reflection deep copier ---

var coreStateType = reflect.TypeOf(coreState{})

// skipField names the fields the copier leaves zero in the copy; each
// has a dedicated rebuild path after restore (see the file comment).
func skipField(owner reflect.Type, name string) bool {
	return owner == coreStateType && name == "reader"
}

type memoKey struct {
	ptr unsafe.Pointer
	t   reflect.Type
}

type copier struct {
	memo  map[memoKey]reflect.Value
	bytes int64
	// max, when non-zero, aborts the copy once bytes exceeds it. Saves
	// are capped (a snapshot that large costs more to copy than the
	// warmup it might save, and would evict many smaller, more reusable
	// snapshots); restores are not — whatever was stored is worth
	// copying back out.
	max int64
}

func newCopier() *copier {
	return &copier{memo: make(map[memoKey]reflect.Value)}
}

// errSnapshotTooLarge aborts an over-budget save mid-copy.
var errSnapshotTooLarge = errors.New("sim: warm snapshot exceeds size cap")

// maxSnapshotBytes caps one saved snapshot at the default budget, so
// a copy the cache would refuse stops early. It admits every snapshot
// class measured. Where the service's runs stop (150K+250K single-core,
// 50K+100K 4-core), a single-core machine takes 1.3-5.3 MiB (MISB the
// most) and a 4-core one 5.2-5.3 MiB; after a 50K warmup a 16-core one
// takes 24.3 (Triage-Dynamic) or 29.2 MiB (MISB). MISB's tables grow
// with the run: 9.3 MiB single-core after 1M instructions.
const maxSnapshotBytes = DefaultWarmCacheBytes

// plainKind caches whether a type contains no Go pointers at any depth
// (strings count as plain: they are immutable and safe to share), so
// the bulk arrays of the cache and metadata stores copy via memmove
// instead of element-wise reflection.
var plainKind sync.Map // reflect.Type -> bool

func isPlain(t reflect.Type) bool {
	if v, ok := plainKind.Load(t); ok {
		return v.(bool)
	}
	plain := false
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128, reflect.String:
		plain = true
	case reflect.Array:
		plain = isPlain(t.Elem())
	case reflect.Struct:
		plain = true
		for i := 0; i < t.NumField(); i++ {
			if !isPlain(t.Field(i).Type) {
				plain = false
				break
			}
		}
	}
	plainKind.Store(t, plain)
	return plain
}

// readable returns v in a form whose value can be read even when it
// came from an unexported field.
func readable(v reflect.Value) reflect.Value {
	if v.CanInterface() || !v.CanAddr() {
		return v
	}
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// copyValue returns a deep copy of v. v must be a value readable by
// this copier (top-level calls pass exported values; recursion handles
// unexported fields through readable).
func (c *copier) copyValue(v reflect.Value) (reflect.Value, error) {
	t := v.Type()
	if isPlain(t) {
		return v, nil
	}
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			return reflect.Zero(t), nil
		}
		key := memoKey{unsafe.Pointer(v.Pointer()), t}
		if dup, ok := c.memo[key]; ok {
			return dup, nil
		}
		dup := reflect.New(t.Elem())
		c.memo[key] = dup
		c.bytes += int64(t.Elem().Size())
		if c.max > 0 && c.bytes > c.max {
			return reflect.Value{}, errSnapshotTooLarge
		}
		if err := c.copyInto(dup.Elem(), v.Elem()); err != nil {
			return reflect.Value{}, err
		}
		return dup, nil
	case reflect.Slice:
		if v.IsNil() {
			return reflect.Zero(t), nil
		}
		n := v.Len()
		c.bytes += int64(n) * int64(t.Elem().Size())
		if c.max > 0 && c.bytes > c.max {
			return reflect.Value{}, errSnapshotTooLarge
		}
		dup := reflect.MakeSlice(t, n, n)
		if isPlain(t.Elem()) {
			reflect.Copy(dup, readable(v))
			return dup, nil
		}
		for i := 0; i < n; i++ {
			if err := c.copyInto(dup.Index(i), v.Index(i)); err != nil {
				return reflect.Value{}, err
			}
		}
		return dup, nil
	case reflect.Array:
		dup := reflect.New(t).Elem()
		for i := 0; i < v.Len(); i++ {
			if err := c.copyInto(dup.Index(i), v.Index(i)); err != nil {
				return reflect.Value{}, err
			}
		}
		return dup, nil
	case reflect.Map:
		if v.IsNil() {
			return reflect.Zero(t), nil
		}
		src := readable(v)
		dup := reflect.MakeMapWithSize(t, src.Len())
		c.bytes += int64(src.Len()) * int64(t.Key().Size()+t.Elem().Size()+16)
		iter := src.MapRange()
		for iter.Next() {
			k, err := c.copyValue(iter.Key())
			if err != nil {
				return reflect.Value{}, err
			}
			val, err := c.copyValue(iter.Value())
			if err != nil {
				return reflect.Value{}, err
			}
			dup.SetMapIndex(k, val)
		}
		return dup, nil
	case reflect.Interface:
		if v.IsNil() {
			return reflect.Zero(t), nil
		}
		inner, err := c.copyValue(readable(v).Elem())
		if err != nil {
			return reflect.Value{}, err
		}
		dup := reflect.New(t).Elem()
		dup.Set(inner)
		return dup, nil
	case reflect.Struct:
		dup := reflect.New(t).Elem()
		if err := c.copyInto(dup, v); err != nil {
			return reflect.Value{}, err
		}
		return dup, nil
	case reflect.Func:
		if readable(v).IsNil() {
			return reflect.Zero(t), nil
		}
		return reflect.Value{}, fmt.Errorf("sim: snapshot: cannot copy func value of type %v", t)
	default:
		return reflect.Value{}, fmt.Errorf("sim: snapshot: cannot copy %v of type %v", v.Kind(), t)
	}
}

// copyInto deep-copies src into the addressable dst (same type).
// Unexported destinations are written through unsafe addressing.
func (c *copier) copyInto(dst, src reflect.Value) error {
	t := src.Type()
	if isPlain(t) {
		writable(dst).Set(readable(src))
		return nil
	}
	if t.Kind() == reflect.Struct {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			sf := readable(src.Field(i))
			if skipField(t, f.Name) {
				continue
			}
			if err := c.copyInto(dst.Field(i), sf); err != nil {
				return fmt.Errorf("%v.%s: %w", t, f.Name, err)
			}
		}
		return nil
	}
	dup, err := c.copyValue(readable(src))
	if err != nil {
		return err
	}
	writable(dst).Set(dup)
	return nil
}

// writable returns dst in a form that can be Set even when it is an
// unexported field.
func writable(dst reflect.Value) reflect.Value {
	if dst.CanSet() {
		return dst
	}
	return reflect.NewAt(dst.Type(), unsafe.Pointer(dst.UnsafeAddr())).Elem()
}
