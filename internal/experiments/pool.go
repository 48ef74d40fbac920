package experiments

import (
	"bytes"
	"container/list"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Pool bounds the number of simulations executing concurrently and
// starts them in the order they were scheduled. Figure coordinators run
// on plain goroutines and never hold a worker slot while waiting on a
// Future, so the pool cannot deadlock: every job it admits is an
// independent leaf simulation.
//
// The pool also owns the cell memo that every Runner on it shares: a
// figure cell finished (or in flight) for one Runner serves any other
// Runner with the same Params, so the service's and workers' one-
// Runner-per-figure jobs simulate a shared baseline once per process.
type Pool struct {
	workers int
	prog    atomic.Pointer[telemetry.PoolProgress]
	memo    cellMemo

	mu      sync.Mutex
	busy    int             // jobs holding a worker slot
	waiting []chan struct{} // queued jobs, in the order Go was called
}

// SetProgress attaches a live progress tracker; workers report busy/
// idle transitions around every pooled job. The pointer is atomic so a
// tracker attached after the first Go (cmd tools wire flags late)
// cannot race the workers reading it.
func (p *Pool) SetProgress(prog *telemetry.PoolProgress) { p.prog.Store(prog) }

// Progress returns the attached tracker, or nil.
func (p *Pool) Progress() *telemetry.PoolProgress { return p.prog.Load() }

// NewPool returns a pool running at most workers simulations at once.
// workers < 1 is clamped to 1 (the sequential engine, -j 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// DefaultPool sizes a pool to the machine (GOMAXPROCS workers).
func DefaultPool() *Pool { return NewPool(runtime.GOMAXPROCS(0)) }

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// acquire queues a job for a worker slot. The returned channel is
// closed when the job may start: at once if a slot is free and no
// earlier job waits, otherwise when a finishing job hands its slot
// over. Jobs start in the order acquire was called.
func (p *Pool) acquire() <-chan struct{} {
	ch := make(chan struct{})
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.busy < p.workers && len(p.waiting) == 0 {
		p.busy++
		close(ch)
	} else {
		p.waiting = append(p.waiting, ch)
	}
	return ch
}

// release passes a finished job's slot to the longest-waiting job.
func (p *Pool) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.waiting) == 0 {
		p.busy--
		return
	}
	close(p.waiting[0])
	p.waiting = p.waiting[1:]
}

// MemoStats reports the cell memo's activity: requests served by a
// cell that an earlier request had already finished or started, and
// cells simulated to fill it (checkpoint restores count as neither).
func (p *Pool) MemoStats() (hits, simulated uint64) {
	return p.memo.hits.Load(), p.memo.simulated.Load()
}

// memoCap bounds the cell memo. A cell is one sim.Result — a few
// hundred bytes, under 2 KB at 16 cores — and the whole 24-figure
// suite has about 600 distinct cells, so the bound only bites in a
// long-lived service running many scales.
const memoCap = 4096

// memoCell is one memoized figure cell.
type memoCell struct {
	key     string
	f       *Future[sim.Result]
	samples []byte // the run's JSONL series (SampleEvery); written before f resolves
	elem    *list.Element
}

// finished reports whether the cell's run has resolved.
func (c *memoCell) finished() bool {
	select {
	case <-c.f.done:
		return true
	default:
		return false
	}
}

// cellMemo is a single-flight, LRU-bounded map from cell key to cell.
// A failed run is dropped before its Future resolves, so the next
// request simulates the cell afresh instead of inheriting the failure.
type cellMemo struct {
	mu    sync.Mutex
	cells map[string]*memoCell
	lru   list.List // of *memoCell, most recently used at the front

	hits      atomic.Uint64
	simulated atomic.Uint64
}

// get returns key's cell, creating it with start when absent. start
// runs under the memo lock and must not block: it resolves the cell
// from a checkpoint or schedules its run on the pool.
func (m *cellMemo) get(key string, start func(*memoCell) *Future[sim.Result]) *memoCell {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.cells[key]; c != nil {
		m.hits.Add(1)
		m.lru.MoveToFront(c.elem)
		return c
	}
	if m.cells == nil {
		m.cells = make(map[string]*memoCell)
	}
	c := &memoCell{key: key}
	c.elem = m.lru.PushFront(c)
	m.cells[key] = c
	c.f = start(c)
	// Evict the least recently used finished cells beyond the bound.
	// Cells still in flight stay: dropping one would let a second
	// request simulate it again while the first is still running.
	for e := m.lru.Back(); e != nil && len(m.cells) > memoCap; {
		prev := e.Prev()
		if old := e.Value.(*memoCell); old.finished() {
			delete(m.cells, old.key)
			m.lru.Remove(e)
		}
		e = prev
	}
	return c
}

// drop forgets c if it is still its key's cell.
func (m *cellMemo) drop(c *memoCell) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cells[c.key] == c {
		delete(m.cells, c.key)
		m.lru.Remove(c.elem)
	}
}

// len returns the number of memoized cells.
func (m *cellMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cells)
}

// Future is the eventual result of a pooled computation. A panic
// inside the computation resolves the Future with a *RunError instead
// of leaving waiters blocked forever.
type Future[T any] struct {
	done chan struct{}
	val  T
	err  *RunError
}

// Wait blocks until the computation finishes and returns its result.
// If the computation failed, Wait re-panics with its *RunError — the
// coordinator that collects the cell decides how to degrade (RunOne
// turns it into an error table; collectSpeedups reads cells through
// Result and prints ERROR instead).
func (f *Future[T]) Wait() T {
	<-f.done
	if f.err != nil {
		panic(f.err)
	}
	return f.val
}

// Result blocks until the computation finishes and returns its value
// and failure, if any — the non-panicking collection path.
func (f *Future[T]) Result() (T, *RunError) {
	<-f.done
	return f.val, f.err
}

// Resolved returns an already-completed Future holding v (checkpoint
// hits resolve instantly without consuming a worker slot).
func Resolved[T any](v T) *Future[T] {
	f := &Future[T]{done: make(chan struct{}), val: v}
	close(f.done)
	return f
}

// Go schedules fn on the pool and returns its Future. fn runs once a
// worker slot is free, after every job an earlier Go queued; slots are
// held only for the duration of fn. A panic in fn is recovered into the
// Future's *RunError; the done channel closes on every path (deferred
// first, so it runs after the recover has stored the error).
func Go[T any](p *Pool, fn func() T) *Future[T] {
	f := &Future[T]{done: make(chan struct{})}
	start := p.acquire()
	go func() {
		defer close(f.done)
		<-start
		defer p.release()
		if prog := p.Progress(); prog != nil {
			prog.WorkerStart()
			defer prog.WorkerDone()
		}
		defer func() {
			if rec := recover(); rec != nil {
				f.err = asRunError(rec)
			}
		}()
		f.val = fn()
	}()
	return f
}

// Guarded runs one simulation under the watchdog configured by
// deadline and stall (either may be zero). mkHooks builds the run's
// telemetry hooks; when a watchdog is armed the hooks gain a RunWatch
// so the simulator can observe the cancellation — a Watch already
// attached by mkHooks is reused, so callers that bridge cancellation
// elsewhere (the service annotates the job's trace span) keep their
// registration. A panic (including a watchdog abort) is re-thrown as
// a *RunError tagged with key.
func Guarded(key string, deadline, stall time.Duration, mkHooks func() *telemetry.Hooks, run func(*telemetry.Hooks) sim.Result) sim.Result {
	hooks := mkHooks()
	if deadline > 0 || stall > 0 {
		if hooks == nil {
			hooks = &telemetry.Hooks{}
		}
		if hooks.Watch == nil {
			hooks.Watch = telemetry.NewRunWatch()
		}
		defer telemetry.StartWatchdog(hooks.Watch, deadline, stall)()
	}
	defer func() {
		if rec := recover(); rec != nil {
			err := asRunError(rec)
			if err.Key == "" {
				err.Key = key
			}
			panic(err)
		}
	}()
	return run(hooks)
}

// --- Runner integration ---

// execute runs one keyed job under the Params' watchdog. A failure
// panics with a *RunError tagged with key: a panic or watchdog abort in
// the run, or an error from Params.FaultHook, which fires before the
// simulation starts.
func (r *Runner) execute(key string, run func(*telemetry.Hooks) sim.Result) sim.Result {
	if hook := r.P.FaultHook; hook != nil {
		if err := hook(key); err != nil {
			panic(&RunError{Key: key, Reason: "fault", Err: err})
		}
	}
	return Guarded(key, r.P.Deadline, r.P.StallTimeout, r.newHooks, run)
}

// record accumulates a finished run's cost into the runner's counters
// (the bench harness reports simulated instructions per second).
func (r *Runner) record(res sim.Result) sim.Result {
	r.runs.Add(1)
	r.simInstr.Add(res.SimulatedInstructions)
	if p := r.pool.Progress(); p != nil {
		p.RunDone()
	}
	return res
}

// newHooks builds the per-run telemetry hooks: a sampler when the
// Params ask for one, and the pool's progress tracker when attached.
// Returns nil when both are off so runs stay on the zero-cost path
// (Guarded adds a watch on top when a watchdog is armed).
func (r *Runner) newHooks() *telemetry.Hooks {
	var h telemetry.Hooks
	if r.P.SampleEvery > 0 {
		h.Sampler = telemetry.NewSampler(r.P.SampleEvery)
	}
	if prog := r.pool.Progress(); prog != nil {
		h.Progress = prog
	}
	if h.Sampler == nil && h.Progress == nil {
		return nil
	}
	return &h
}

// encodeSamples renders one run's sampled series as JSONL (nil when
// the run was not sampled). A series that fails to encode is dropped
// and the run still succeeds, as service.Execute does for single jobs:
// the result is good, only its telemetry is lost.
func encodeSamples(hooks *telemetry.Hooks) []byte {
	if hooks == nil || hooks.Sampler == nil {
		return nil
	}
	var buf bytes.Buffer
	if hooks.Sampler.WriteJSONL(&buf) != nil {
		return nil
	}
	return buf.Bytes()
}

// SampleSeries returns the JSONL time series of every finished
// memoized cell this runner used, keyed by cell ("bench/config" for
// single-core cells). Empty unless Params.SampleEvery was set.
func (r *Runner) SampleSeries() map[string][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]byte, len(r.used))
	for k, c := range r.used {
		if c.finished() && len(c.samples) > 0 {
			out[k] = c.samples
		}
	}
	return out
}

// Runs returns how many simulations this runner actually executed
// (cells served by the pool memo or restored from the checkpoint do
// not count — the memo guarantees each distinct cell is simulated
// once per pool).
func (r *Runner) Runs() uint64 { return r.runs.Load() }

// Restored returns how many cells were satisfied from the checkpoint
// instead of being simulated.
func (r *Runner) Restored() uint64 { return r.restored.Load() }

// SimulatedInstructions returns the total instructions stepped by this
// runner's simulations, including warmup and contention-sustain work.
func (r *Runner) SimulatedInstructions() uint64 { return r.simInstr.Load() }

// cell returns the Future of one memoized figure cell, starting run on
// the pool unless a Runner sharing the pool and these Params already
// finished or started it. key names the cell within the Params; it
// must determine the simulation completely (see namedPF). With a
// checkpoint attached, durable cells already in the store resolve from
// disk and newly simulated ones are appended to it.
func (r *Runner) cell(key string, durable bool, run func(*telemetry.Hooks) sim.Result) *Future[sim.Result] {
	ckpt := r.ckpt
	if !durable {
		ckpt = nil
	}
	c := r.pool.memo.get(r.memoNS+key, func(c *memoCell) *Future[sim.Result] {
		if ckpt != nil {
			if res, samples, hit := ckpt.Get(key); hit {
				c.samples = samples
				r.restored.Add(1)
				return Resolved(res)
			}
		}
		return Go(r.pool, func() sim.Result {
			ok := false
			defer func() {
				if !ok {
					r.pool.memo.drop(c)
				}
			}()
			res := r.execute(key, func(hooks *telemetry.Hooks) sim.Result {
				res := r.record(run(hooks))
				c.samples = encodeSamples(hooks)
				return res
			})
			r.pool.memo.simulated.Add(1)
			if ckpt != nil {
				ckpt.Put(key, res, c.samples)
			}
			ok = true
			return res
		})
	})
	r.mu.Lock()
	r.used[key] = c
	r.mu.Unlock()
	return c.f
}

// singleF returns the Future of one benchmark x prefetcher run on the
// single-core machine, keyed "bench/config". It is the only durable
// cell kind: the resume checkpoint holds single-core cells.
func (r *Runner) singleF(spec workload.Spec, cfg namedPF) *Future[sim.Result] {
	return r.cell(spec.Name+"/"+cfg.name, true, func(hooks *telemetry.Hooks) sim.Result {
		return runSingle(r.P, r.graphs, spec, cfg.f, nil, hooks)
	})
}

// runSingleF schedules an unmemoized single-core run on the pool: a
// mutated machine, or a factory whose instance the figure inspects
// afterwards (Fig01), has no stable cell name.
func (r *Runner) runSingleF(spec workload.Spec, factory pfFactory, mutate func(*sim.Options)) *Future[sim.Result] {
	key := spec.Name + "/adhoc"
	return Go(r.pool, func() sim.Result {
		return r.execute(key, func(hooks *telemetry.Hooks) sim.Result {
			return r.record(runSingle(r.P, r.graphs, spec, factory, mutate, hooks))
		})
	})
}

// runMixF returns the Future of one multi-programmed mix cell. Mix
// display names are not unique across figures (every mix figure
// numbers its mixes "mix1"..), so the key spells out the benchmark
// composition: two cells share it only when they run the same programs
// on the same cores.
func (r *Runner) runMixF(mix workload.MixSpec, cfg namedPF) *Future[sim.Result] {
	comp := make([]string, len(mix.Specs))
	for c, spec := range mix.Specs {
		comp[c] = spec.Name
	}
	return r.cell(strings.Join(comp, "+")+"/"+cfg.name, false, func(hooks *telemetry.Hooks) sim.Result {
		defer collectMachine()
		return runMix(r.P, r.graphs, mix, cfg.f, hooks)
	})
}

// collectMachine runs a garbage collection once a multi-core cell's
// machine is out of reach. At 16 cores a machine holds 100 MB or more
// of caches and metadata stores; collecting it before the slot passes
// to the next cell keeps one such machine on the heap instead of two,
// so a figure run's peak memory is the same whatever order the pool
// admitted its cells in. The machine's workload graphs may outlive it
// in the Runner's graph cache, which holds at most
// workload.GraphCacheBytes of them. Single-core machines are small
// enough to leave to the pacer.
func collectMachine() { runtime.GC() }

// runRateF returns the Future of one N-copy server cell.
func (r *Runner) runRateF(spec workload.Spec, cores int, cfg namedPF) *Future[sim.Result] {
	return r.cell(fmt.Sprintf("%s/x%d/%s", spec.Name, cores, cfg.name), false, func(hooks *telemetry.Hooks) sim.Result {
		defer collectMachine()
		return runRate(r.P, r.graphs, spec, cores, cfg.f, hooks)
	})
}

// RunAll executes the given experiments, each on its own coordinator
// goroutine so their simulations interleave on the pool, and returns
// the tables in input order. The pool's single-flight memo keeps shared
// cells simulated exactly once even when figures race to them, so the
// output is byte-identical to a sequential run. A one-worker pool runs
// one cell at a time anyway, so there the experiments run in turn: the
// cells then start in the same order on every run (the pool admits them
// in the order they were asked for), and so do the graph cache's hits.
// A failing experiment yields an error table (RunOne); its siblings
// complete.
func RunAll(r *Runner, es []Experiment) []*Table {
	tables := make([]*Table, len(es))
	run := func(i int) {
		tables[i] = RunOne(r, es[i])
		if p := r.pool.Progress(); p != nil {
			p.UnitDone()
		}
	}
	if r.pool.Workers() == 1 {
		for i := range es {
			run(i)
		}
		return tables
	}
	var wg sync.WaitGroup
	for i := range es {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	wg.Wait()
	return tables
}
