package sim

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/prefetch/hybrid"
	"repro/internal/prefetch/stride"
	"repro/internal/telemetry"
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

// TestRestoreRebindsHookViews checks that a restored hierarchy's
// interface views of its prefetchers (outcome and fill observers,
// partitioners) are views of the copied prefetchers, which the hot
// path then drives, and not of the snapshot's.
func TestRestoreRebindsHookViews(t *testing.T) {
	wc := GlobalWarmCache()
	wc.Reset()
	t.Cleanup(wc.Reset)
	mcf, _ := workload.ByName("mcf")
	run := func() *Machine {
		t.Helper()
		tri := core.New(core.Config{Mode: core.Dynamic})
		m, err := New(Options{
			Machine:             config.Default(1),
			Workloads:           []trace.Reader{mcf.New(1, 1<<40)},
			Prefetchers:         []prefetch.Prefetcher{hybrid.New(stride.New(), tri)},
			WarmupInstructions:  50_000,
			MeasureInstructions: 10_000,
			WarmKey:             "hooks",
		})
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		return m
	}
	run()
	warm := run()
	if hits, _, _ := wc.Stats(); hits != 1 {
		t.Fatalf("%d restores, want 1", hits)
	}
	hyb := warm.hier.l2pf[0].(*hybrid.Prefetcher)
	if warm.hier.l2oo[0] != prefetch.OutcomeObserver(hyb) || warm.hier.l2fo[0] != prefetch.FillObserver(hyb) {
		t.Errorf("observers %p, %p are not the restored hybrid %p", warm.hier.l2oo[0], warm.hier.l2fo[0], hyb)
	}
	tri := hyb.Parts()[1]
	if got := warm.hier.partitioners[0]; len(got) != 1 || got[0] != tri.(metadataPartitioner) {
		t.Errorf("partitioners %v are not the restored Triage %p", got, tri)
	}
}

// stepCounter is a ProgressSink that counts the instructions a run
// steps.
type stepCounter uint64

func (c *stepCounter) Add(n uint64) { *c += stepCounter(n) }

// TestWarmContinuationStepsOnlyTheAddedWindow pins the work a warm
// snapshot saves: a run sharing a keyed prefix steps only the
// instructions its longer window adds to the snapshot's, an equal
// window steps nothing, and a shorter one runs cold. A change that
// silently falls back to cold runs steps the whole run and fails here.
func TestWarmContinuationStepsOnlyTheAddedWindow(t *testing.T) {
	wc := GlobalWarmCache()
	wc.Reset()
	t.Cleanup(wc.Reset)
	const warm, measure = 60_000, 40_000
	mcf, _ := workload.ByName("mcf")
	run := func(window uint64, key string) (Result, uint64) {
		t.Helper()
		var steps stepCounter
		m, err := New(Options{
			Machine:             config.Default(1),
			Workloads:           []trace.Reader{mcf.New(1, 1<<40)},
			Prefetchers:         []prefetch.Prefetcher{stride.New()},
			WarmupInstructions:  warm,
			MeasureInstructions: window,
			Telemetry:           &telemetry.Hooks{Progress: &steps},
			WarmKey:             key,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Run(), uint64(steps)
	}
	check := func(name string, window, wantSteps, wantHits, wantMisses uint64) {
		t.Helper()
		hits0, misses0, _ := wc.Stats()
		res, steps := run(window, "continue")
		hits, misses, _ := wc.Stats()
		if steps != wantSteps || hits-hits0 != wantHits || misses-misses0 != wantMisses {
			t.Errorf("%s: stepped %d with %d restores and %d misses, want %d, %d and %d",
				name, steps, hits-hits0, misses-misses0, wantSteps, wantHits, wantMisses)
		}
		if cold, _ := run(window, ""); !reflect.DeepEqual(res, cold) {
			t.Errorf("%s: result differs from a keyless cold run:\ncold: %+v\nkeyed: %+v", name, cold, res)
		}
	}
	check("first run", measure, warm+measure, 0, 1)
	if _, _, stores := wc.Stats(); stores != 1 {
		t.Fatalf("first run stored %d snapshots, want 1", stores)
	}
	check("longer window", measure+30_000, 30_000, 1, 0)
	if got := wc.RestoredInstructions(); got != warm+measure {
		t.Errorf("the restore skipped %d instructions, want the snapshot's %d", got, warm+measure)
	}
	check("equal window", measure, 0, 1, 0)
	check("shorter window", measure-10_000, warm+measure-10_000, 0, 1)
	if _, _, stores := wc.Stats(); stores != 1 {
		t.Errorf("%d snapshots stored, want the first run's only", stores)
	}
}
