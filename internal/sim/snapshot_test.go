package sim

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"
)

// heldSum recomputes the cache's held bytes from the snapshots it holds.
func heldSum(wc *WarmCache) int64 {
	var n int64
	for _, s := range wc.snaps {
		n += s.bytes
	}
	return n
}

// TestWarmCacheEviction pins the cache's bookkeeping on synthetic
// snapshots: least-recently-used eviction with get refreshing recency,
// refusal of a snapshot larger than the budget, and first-write-wins
// on a key already held.
func TestWarmCacheEviction(t *testing.T) {
	wc := NewWarmCache(100)
	a, b, c := &warmSnapshot{bytes: 30}, &warmSnapshot{bytes: 30}, &warmSnapshot{bytes: 30}
	wc.put("a", a)
	wc.put("b", b)
	wc.put("c", c)
	if got := wc.HeldBytes(); got != 90 {
		t.Fatalf("held %d bytes after three 30-byte puts, want 90", got)
	}
	if wc.get("a") != a {
		t.Fatal("get(a) did not return the stored snapshot")
	}
	// a was refreshed, so a 30-byte put evicts b, the oldest.
	wc.put("d", &warmSnapshot{bytes: 30})
	if wc.get("b") != nil {
		t.Error("b survived although it was least recently used")
	}
	for _, k := range []string{"a", "c", "d"} {
		if wc.get(k) == nil {
			t.Errorf("%s was evicted, want b evicted", k)
		}
	}
	if got := wc.HeldBytes(); got != 90 || got != heldSum(wc) {
		t.Errorf("held %d bytes, snapshots sum to %d, want 90", got, heldSum(wc))
	}

	// Larger than the whole budget: refused, and nothing is evicted for it.
	_, _, stores := wc.Stats()
	wc.put("big", &warmSnapshot{bytes: 101})
	if wc.get("big") != nil {
		t.Error("a snapshot larger than the budget was stored")
	}
	if _, _, after := wc.Stats(); after != stores || wc.HeldBytes() != 90 {
		t.Errorf("refused put changed the cache: stores %d -> %d, held %d", stores, after, wc.HeldBytes())
	}

	// A second put of a held key keeps the first snapshot.
	wc.put("c", &warmSnapshot{bytes: 10})
	if wc.get("c") != c || wc.HeldBytes() != 90 {
		t.Errorf("second put of c replaced the first (held %d bytes)", wc.HeldBytes())
	}
}

// TestWarmCacheEvictionRandomized drives the cache with random puts and
// gets against a slice-based LRU reference and checks, after every
// operation, that both hold the same keys and that held bytes equal the
// sum of the snapshots held and never exceed the budget.
func TestWarmCacheEvictionRandomized(t *testing.T) {
	const budget = 1000
	rng := rand.New(rand.NewPCG(1, 2))
	wc := NewWarmCache(budget)
	var ref []string // LRU order, oldest first
	size := map[string]int64{}
	refUsed := func() (n int64) {
		for _, k := range ref {
			n += size[k]
		}
		return n
	}
	refTouch := func(k string) {
		for i, r := range ref {
			if r == k {
				ref = append(append(ref[:i:i], ref[i+1:]...), k)
				return
			}
		}
	}
	held := func(k string) bool {
		for _, r := range ref {
			if r == k {
				return true
			}
		}
		return false
	}
	for op := 0; op < 5000; op++ {
		k := fmt.Sprintf("k%d", rng.IntN(40))
		if rng.IntN(2) == 0 {
			got := wc.get(k) != nil
			if got != held(k) {
				t.Fatalf("op %d: get(%s) hit=%v, reference %v", op, k, got, held(k))
			}
			if got {
				refTouch(k)
			}
		} else {
			n := int64(1 + rng.IntN(budget/3))
			if rng.IntN(50) == 0 {
				n = budget + 1
			}
			wc.put(k, &warmSnapshot{bytes: n})
			switch {
			case held(k):
				refTouch(k)
			case n <= budget:
				for refUsed()+n > budget {
					ref = ref[1:]
				}
				ref = append(ref, k)
				size[k] = n
			}
		}
		if used := wc.HeldBytes(); used > budget || used != heldSum(wc) || used != refUsed() {
			t.Fatalf("op %d: held %d bytes, snapshots sum to %d, reference %d, budget %d",
				op, used, heldSum(wc), refUsed(), budget)
		}
		if len(wc.snaps) != len(ref) || !slices.Equal(wc.order, ref) {
			t.Fatalf("op %d: cache order %v, reference %v", op, wc.order, ref)
		}
	}
}

// TestWarmKeyCollisionRunsCold checks the signature double-check: a run
// whose WarmKey names a snapshot taken under a different LLC policy must
// warm up cold, produce the result of a run with no key, and count a
// miss rather than a restore.
func TestWarmKeyCollisionRunsCold(t *testing.T) {
	wc := GlobalWarmCache()
	wc.Reset()
	t.Cleanup(wc.Reset)
	mcf, _ := workload.ByName("mcf")
	run := func(policy, key string) Result {
		t.Helper()
		m, err := New(Options{
			Machine:             config.Default(1),
			Workloads:           []trace.Reader{mcf.New(1, 1<<40)},
			LLCPolicy:           policy,
			WarmupInstructions:  100_000,
			MeasureInstructions: 100_000,
			WarmKey:             key,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Run()
	}
	lru := run("lru", "collide")
	hits0, misses0, stores0 := wc.Stats()
	if stores0 != 1 {
		t.Fatalf("lru run stored %d snapshots, want 1", stores0)
	}
	collided := run("hawkeye", "collide")
	hits, misses, _ := wc.Stats()
	if hits != hits0 || misses != misses0+1 {
		t.Errorf("colliding run counted %d restores and %d misses, want 0 and 1", hits-hits0, misses-misses0)
	}
	cold := run("hawkeye", "")
	if reflect.DeepEqual(cold, lru) {
		t.Fatal("lru and hawkeye runs agree, so a wrong restore would go unseen")
	}
	if !reflect.DeepEqual(cold, collided) {
		t.Errorf("colliding run differs from a cold run:\ncold:     %+v\ncollided: %+v", cold, collided)
	}
}
