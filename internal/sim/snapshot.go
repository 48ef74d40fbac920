package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"unsafe"
)

// This file implements warm-state snapshot reuse: after the warmup
// phase, the machine's entire simulated state (hierarchy, prefetchers,
// per-core pipeline state) is deep-copied into a process-wide cache
// keyed by the caller-supplied warm-prefix identity. A later run whose
// warm prefix is identical restores the copy instead of re-simulating
// warmup, then fast-forwards its trace readers by replaying the number
// of records the warm run consumed. Restoration is provably
// output-preserving because the key covers everything that shapes warm
// state (machine config, workloads, prefetcher configuration, warmup
// window — see Options.WarmKey) and the restore is a deep copy: the
// cached snapshot is never aliased by a running machine.
//
// The deep copier is reflection-based and deliberately conservative:
// it refuses any state it does not know how to duplicate (non-nil
// function values, channels, unsafe pointers), so a future field that
// would break value semantics disables reuse (the run falls back to a
// cold warmup) instead of corrupting results. Two fields are skipped
// by name: the hierarchy's devirtualized hook table (l2train, rebuilt
// by resolveHooks after restore — bound method values captured the old
// receivers) and each core's trace reader (readers hold rng state that
// must not be shared; they are fast-forwarded by replay instead).

// warmSnapshot is one cached post-warmup machine state. hier and cores
// are pristine deep copies owned by the cache; restores copy them
// again, so a snapshot can seed any number of runs.
type warmSnapshot struct {
	hier  *hierarchy
	cores []*coreState // reader fields nil; consumed counts preserved
	steps uint64
	sig   string // structural signature double-checking the caller's key
	bytes int64  // approximate heap bytes, for cache accounting
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
}

// DefaultWarmCacheBytes bounds the default process-wide cache. It is
// sized from measured reuse, not from what fits: replaying the service
// benchmark's job sequence, no restore needed an LRU stack distance
// above 106 MiB, so this is the smallest power of two above that. A
// larger budget keeps only snapshots that nothing restores, and their
// bytes set the service's peak RSS (see EXPERIMENTS.md, "Warm-state
// snapshot reuse").
const DefaultWarmCacheBytes = 128 << 20

var processWarmCache = NewWarmCache(DefaultWarmCacheBytes)

// GlobalWarmCache returns the process-wide cache used by runs whose
// Options name a WarmKey.
func GlobalWarmCache() *WarmCache { return processWarmCache }

// NewWarmCache returns an empty cache bounded to roughly budget bytes.
func NewWarmCache(budget int64) *WarmCache {
	return &WarmCache{budget: budget, snaps: make(map[string]*warmSnapshot)}
}

// Stats reports cache activity: runs that restored a snapshot, lookups
// that did not (no snapshot held, or one that could not be used), and
// snapshots stored.
func (wc *WarmCache) Stats() (hits, misses, stores uint64) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.hits, wc.misses, wc.stores
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
	wc.hits, wc.misses, wc.stores = 0, 0, 0
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

// countLookup counts one lookup's outcome: a hit only when a run
// actually restored the snapshot, a miss for everything else (no
// snapshot, a signature mismatch, a failed copy).
func (wc *WarmCache) countLookup(restored bool) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if restored {
		wc.hits++
	} else {
		wc.misses++
	}
}

func (wc *WarmCache) put(key string, s *warmSnapshot) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if old := wc.snaps[key]; old != nil {
		// Concurrent warm runs of the same key race to store identical
		// state; first write wins and stays LRU-fresh.
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
// points would be skipped by a restored warmup, so both disable reuse;
// samplers and progress sinks only observe the measurement phase and
// stay compatible.
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
	detailed := m.opts.Machine.Cores > 1
	if m.opts.DetailedDRAM != nil {
		detailed = *m.opts.DetailedDRAM
	}
	return fmt.Sprintf("%+v/warm%d/pol%s/dram%v/ncl%v/cores%d",
		m.opts.Machine, m.opts.WarmupInstructions, m.opts.LLCPolicy,
		detailed, m.opts.NoCapacityLoss, len(m.cores))
}

// saveWarm deep-copies the machine's post-warmup state into the
// process cache. Failures (a prefetcher grew state the copier refuses)
// are silent: the run proceeds normally and later runs warm up cold.
func (m *Machine) saveWarm() {
	snap, err := m.snapshot()
	if err != nil {
		return
	}
	processWarmCache.put(m.opts.WarmKey, snap)
}

// tryRestoreWarm restores a cached warm state for this machine's key.
// It returns false (leaving the machine untouched) when no snapshot
// exists, the signature disagrees, or the copy fails. Either way it
// counts the outcome in the process cache's stats.
func (m *Machine) tryRestoreWarm() (ok bool) {
	defer func() { processWarmCache.countLookup(ok) }()
	snap := processWarmCache.get(m.opts.WarmKey)
	if snap == nil || snap.sig != m.warmSignature() || len(snap.cores) != len(m.cores) {
		return false
	}
	c := newCopier()
	hv, err := c.copyValue(reflect.ValueOf(snap.hier))
	if err != nil {
		return false
	}
	cores := make([]*coreState, len(snap.cores))
	for i, cs := range snap.cores {
		cv, err := c.copyValue(reflect.ValueOf(cs))
		if err != nil {
			return false
		}
		cores[i] = cv.Interface().(*coreState)
	}
	// Point of no return: mutate the machine.
	m.hier = hv.Interface().(*hierarchy)
	m.cores = cores
	m.steps = snap.steps
	for i, cs := range m.cores {
		cs.reader = m.opts.Workloads[i]
		for n := uint64(0); n < cs.consumed; n++ {
			cs.reader.Next()
		}
	}
	// Rebind everything that holds receivers or interface views of the
	// old object graph.
	m.hier.resolveHooks()
	m.resolveProbes()
	return true
}

// snapshot deep-copies the machine's current simulated state.
func (m *Machine) snapshot() (*warmSnapshot, error) {
	c := newCopier()
	c.max = maxSnapshotBytes
	hv, err := c.copyValue(reflect.ValueOf(m.hier))
	if err != nil {
		return nil, err
	}
	snap := &warmSnapshot{
		hier:  hv.Interface().(*hierarchy),
		steps: m.steps,
		sig:   m.warmSignature(),
	}
	for _, cs := range m.cores {
		cv, err := c.copyValue(reflect.ValueOf(cs))
		if err != nil {
			return nil, err
		}
		snap.cores = append(snap.cores, cv.Interface().(*coreState))
	}
	snap.bytes = c.bytes
	return snap, nil
}

// --- reflection deep copier ---

var (
	hierarchyType = reflect.TypeOf(hierarchy{})
	coreStateType = reflect.TypeOf(coreState{})
)

// skipField names the fields the copier leaves zero in the copy; each
// has a dedicated rebuild path after restore (see the file comment).
func skipField(owner reflect.Type, name string) bool {
	switch owner {
	case hierarchyType:
		// Bound method values capture the old hierarchy's prefetchers;
		// resolveHooks rebuilds them (and the derived observer and
		// partitioner views) against the copy.
		return name == "l2train" || name == "l2oo" || name == "l2fo" || name == "partitioners"
	case coreStateType:
		return name == "reader"
	}
	return false
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

// maxSnapshotBytes caps one saved snapshot. It is set by the machines
// it must admit, not as a fraction of the budget: the single-core
// machines (1.6-5.8 MiB, MISB the largest), 4-core machines (Triage
// 18.4 MiB, MISB 23.1 MiB) and 8-core Triage (36.7 MiB). It refuses
// 16-core MISB (92.3 MiB) and 16-core Triage (73.4 MiB): either would
// evict most of the cache, and its deep copy costs more than the cold
// warmup it might save.
const maxSnapshotBytes = 64 << 20

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
