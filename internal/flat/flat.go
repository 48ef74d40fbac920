// Package flat provides the open-addressed hash structures backing the
// simulator's per-instruction hot paths: a growable uint64->uint64 Map
// (the unbounded off-chip metadata spaces of ISB/MISB and Triage's
// reuse histogram) and a bounded LRU table (TLB-synced and block-
// granular metadata caches). Both avoid Go's map runtime: lookups are a
// multiply, a shift, and a short linear probe over dense arrays, and
// neither allocates on the steady-state access path.
package flat

// fibMul is the 64-bit Fibonacci hashing constant (2^64 / phi).
const fibMul = 0x9E3779B97F4A7C15

// Map is an open-addressed uint64->uint64 hash map with linear probing.
// The zero key is stored out of line so every table slot with key 0 is
// unambiguously empty. Deletion uses backward-shift (no tombstones), so
// probe chains stay short; the table grows by doubling when the load
// factor reaches 3/4 and never shrinks.
type Map struct {
	keys  []uint64
	vals  []uint64
	shift uint // 64 - log2(len(keys))
	n     int  // entries stored in the table (excluding the zero key)

	hasZero bool
	zeroVal uint64
}

// NewMap returns a Map pre-sized for about hint entries.
func NewMap(hint int) *Map {
	capacity := 16
	for capacity*3 < hint*4 {
		capacity <<= 1
	}
	m := &Map{}
	m.init(capacity)
	return m
}

func (m *Map) init(capacity int) {
	m.keys = make([]uint64, capacity)
	m.vals = make([]uint64, capacity)
	m.shift = 64
	for c := capacity; c > 1; c >>= 1 {
		m.shift--
	}
}

func (m *Map) home(k uint64) int {
	return int((k * fibMul) >> m.shift)
}

// Len returns the number of stored entries.
func (m *Map) Len() int {
	if m.hasZero {
		return m.n + 1
	}
	return m.n
}

// Get returns the value stored under k.
func (m *Map) Get(k uint64) (uint64, bool) {
	if k == 0 {
		return m.zeroVal, m.hasZero
	}
	mask := len(m.keys) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		switch m.keys[i] {
		case k:
			return m.vals[i], true
		case 0:
			return 0, false
		}
	}
}

// Set stores v under k, inserting or overwriting.
func (m *Map) Set(k, v uint64) {
	if k == 0 {
		m.hasZero = true
		m.zeroVal = v
		return
	}
	mask := len(m.keys) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		switch m.keys[i] {
		case k:
			m.vals[i] = v
			return
		case 0:
			m.keys[i] = k
			m.vals[i] = v
			m.n++
			if m.n*4 >= len(m.keys)*3 {
				m.grow()
			}
			return
		}
	}
}

func (m *Map) grow() {
	oldKeys, oldVals := m.keys, m.vals
	m.init(len(oldKeys) * 2)
	mask := len(m.keys) - 1
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := m.home(k)
		for m.keys[j] != 0 {
			j = (j + 1) & mask
		}
		m.keys[j] = k
		m.vals[j] = oldVals[i]
	}
}

// Delete removes k if present, reporting whether it was. Backward-shift
// deletion moves later entries of the probe chain up over the hole (the
// same scheme as LRU.idxDelete), so lookups never meet a tombstone.
func (m *Map) Delete(k uint64) bool {
	if k == 0 {
		had := m.hasZero
		m.hasZero = false
		m.zeroVal = 0
		return had
	}
	mask := len(m.keys) - 1
	i := m.home(k)
	for {
		switch m.keys[i] {
		case k:
			goto found
		case 0:
			return false
		}
		i = (i + 1) & mask
	}
found:
	m.n--
	for {
		m.keys[i] = 0
		m.vals[i] = 0
		j := i
		for {
			j = (j + 1) & mask
			kj := m.keys[j]
			if kj == 0 {
				return true
			}
			// Move the entry at j up to i only if its home position
			// precedes the hole (cyclically): otherwise moving it would
			// break its own probe chain.
			h := m.home(kj)
			if (j-h)&mask >= (j-i)&mask {
				m.keys[i] = kj
				m.vals[i] = m.vals[j]
				i = j
				break
			}
		}
	}
}

// Range calls fn for every entry until fn returns false. Iteration
// order is the table's probe order (deterministic for a given insert
// history, unlike Go's map).
func (m *Map) Range(fn func(k, v uint64) bool) {
	if m.hasZero && !fn(0, m.zeroVal) {
		return
	}
	for i, k := range m.keys {
		if k != 0 && !fn(k, m.vals[i]) {
			return
		}
	}
}

// Reset empties the map, keeping its capacity.
func (m *Map) Reset() {
	clear(m.keys)
	clear(m.vals)
	m.n = 0
	m.hasZero = false
	m.zeroVal = 0
}

// LRU is a bounded key->value table with exact LRU eviction: an
// open-addressed index over a fixed slot array threaded by an intrusive
// doubly-linked recency list. All storage is allocated once at
// construction; Find/TouchFront/Insert never allocate.
//
// The index uses linear probing with backward-shift deletion, so
// evictions leave no tombstones and probe chains that wrap past the end
// of the table stay intact.
type LRU[V any] struct {
	keys []uint64
	vals []V
	prev []int32
	next []int32
	head int32 // MRU, -1 when empty
	tail int32 // LRU, -1 when empty
	n    int

	idx   []int32 // slot+1; 0 = empty
	shift uint
}

// NewLRU returns an LRU holding at most capacity entries.
func NewLRU[V any](capacity int) *LRU[V] {
	if capacity < 1 {
		capacity = 1
	}
	idxCap := 4
	for idxCap < capacity*2 {
		idxCap <<= 1
	}
	l := &LRU[V]{
		keys:  make([]uint64, capacity),
		vals:  make([]V, capacity),
		prev:  make([]int32, capacity),
		next:  make([]int32, capacity),
		head:  -1,
		tail:  -1,
		idx:   make([]int32, idxCap),
		shift: 64,
	}
	for c := idxCap; c > 1; c >>= 1 {
		l.shift--
	}
	return l
}

// Len returns the number of resident entries.
func (l *LRU[V]) Len() int { return l.n }

func (l *LRU[V]) home(k uint64) int {
	return int((k * fibMul) >> l.shift)
}

// Find returns the slot of key without touching recency order.
func (l *LRU[V]) Find(key uint64) (slot int, ok bool) {
	mask := len(l.idx) - 1
	for i := l.home(key); ; i = (i + 1) & mask {
		s := l.idx[i]
		if s == 0 {
			return 0, false
		}
		if l.keys[s-1] == key {
			return int(s - 1), true
		}
	}
}

// At returns a pointer to the value in slot (valid until eviction).
func (l *LRU[V]) At(slot int) *V { return &l.vals[slot] }

// Key returns the key stored in slot.
func (l *LRU[V]) Key(slot int) uint64 { return l.keys[slot] }

// TouchFront promotes slot to most-recently-used.
func (l *LRU[V]) TouchFront(slot int) {
	s := int32(slot)
	if l.head == s {
		return
	}
	l.unlink(s)
	l.pushFront(s)
}

// Insert stores val under key at MRU position. If key is already
// present its value is overwritten and promoted. When the table is full
// the LRU entry is evicted and returned.
func (l *LRU[V]) Insert(key uint64, val V) (evKey uint64, evVal V, evicted bool) {
	if slot, ok := l.Find(key); ok {
		l.vals[slot] = val
		l.TouchFront(slot)
		return 0, evVal, false
	}
	var s int32
	if l.n < len(l.keys) {
		s = int32(l.n)
		l.n++
	} else {
		s = l.tail
		evKey, evVal, evicted = l.keys[s], l.vals[s], true
		l.unlink(s)
		l.idxDelete(l.keys[s])
	}
	l.keys[s] = key
	l.vals[s] = val
	l.pushFront(s)
	l.idxInsert(key, s)
	return evKey, evVal, evicted
}

// Reset empties the table, keeping its capacity.
func (l *LRU[V]) Reset() {
	clear(l.idx)
	var zero V
	for i := range l.vals[:l.n] {
		l.vals[i] = zero
	}
	l.n = 0
	l.head, l.tail = -1, -1
}

func (l *LRU[V]) pushFront(s int32) {
	l.prev[s] = -1
	l.next[s] = l.head
	if l.head >= 0 {
		l.prev[l.head] = s
	}
	l.head = s
	if l.tail < 0 {
		l.tail = s
	}
}

func (l *LRU[V]) unlink(s int32) {
	if p := l.prev[s]; p >= 0 {
		l.next[p] = l.next[s]
	} else {
		l.head = l.next[s]
	}
	if n := l.next[s]; n >= 0 {
		l.prev[n] = l.prev[s]
	} else {
		l.tail = l.prev[s]
	}
}

func (l *LRU[V]) idxInsert(key uint64, s int32) {
	mask := len(l.idx) - 1
	i := l.home(key)
	for l.idx[i] != 0 {
		i = (i + 1) & mask
	}
	l.idx[i] = s + 1
}

// idxDelete removes key from the index with backward-shift deletion:
// later entries in the probe chain move up so lookups never need
// tombstones.
func (l *LRU[V]) idxDelete(key uint64) {
	mask := len(l.idx) - 1
	i := l.home(key)
	for {
		s := l.idx[i]
		if s == 0 {
			return // not present (cannot happen for resident keys)
		}
		if l.keys[s-1] == key {
			break
		}
		i = (i + 1) & mask
	}
	for {
		l.idx[i] = 0
		j := i
		for {
			j = (j + 1) & mask
			s := l.idx[j]
			if s == 0 {
				return
			}
			// Move the entry at j up to i only if its home position
			// precedes the hole (cyclically): otherwise moving it would
			// break its own probe chain.
			h := l.home(l.keys[s-1])
			if (j-h)&mask >= (j-i)&mask {
				l.idx[i] = s
				i = j
				break
			}
		}
	}
}
