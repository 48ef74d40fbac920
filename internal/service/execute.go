package service

import (
	"bytes"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Sink receives a running job's live telemetry: retired-instruction
// deltas, each sampled interval as it closes, and the reason if the
// watchdog aborts the run. In-process the sink is the Job itself
// (feeding its JobFeed and trace); on a cluster worker it is the event
// poster that batches progress to the coordinator.
type Sink interface {
	telemetry.ProgressSink
	OnSample(telemetry.Sample)
	OnCancel(reason string)
}

// figureProgressEvery paces how often a figure job's instruction count
// is read off its Runner into the sink.
const figureProgressEvery = 100 * time.Millisecond

// Execute turns one normalized job spec into its result envelope on
// pool. It is the only code that does so — triaged's in-process slots
// and triageworker both call it — which is what keeps a job's result
// byte-identical wherever it runs. key is the job's content key (it
// names the run in errors).
//
// A single job runs under the deadline/stall watchdog (zero disables
// either) with its sampler streaming into the sink; the envelope
// carries the result plus the sampled series as JSONL. A figure job
// runs its registry experiment on a fresh Runner sharing pool (and so
// the pool's cell memo); a table with error rows is still a result,
// flagged Failed. The error is a single run's failure: a panic or a
// watchdog abort.
func Execute(pool *experiments.Pool, key string, spec JobSpec, deadline, stall time.Duration, sink Sink) (JobResult, error) {
	if spec.Kind == KindFigure {
		e, _ := experiments.ByID(spec.Figure)
		p := spec.Scale.params()
		p.Deadline, p.StallTimeout = deadline, stall
		runner := experiments.NewRunnerPool(p, pool)
		// Forward the Runner's simulated-instruction count as it grows,
		// and once more when the table is done, so the sink's total is
		// the Runner's.
		var sent uint64
		flush := func() {
			if n := runner.SimulatedInstructions(); n > sent {
				sink.Add(n - sent)
				sent = n
			}
		}
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			t := time.NewTicker(figureProgressEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					flush()
				}
			}
		}()
		table := experiments.RunOne(runner, e)
		close(stop)
		<-stopped
		flush()
		return JobResult{Kind: KindFigure, Table: table}, nil
	}

	run := *spec.Run
	prog := pool.Progress()
	progress := telemetry.ProgressSink(sink)
	if prog != nil {
		progress = telemetry.Tee(sink, prog)
	}
	var sampler *telemetry.Sampler
	mkHooks := func() *telemetry.Hooks {
		h := &telemetry.Hooks{Progress: progress}
		if run.SampleEvery > 0 {
			sampler = telemetry.NewSampler(run.SampleEvery)
			sampler.Stream(sink.OnSample)
			h.Sampler = sampler
		}
		if deadline > 0 || stall > 0 {
			// Pre-attach the watch (Guarded reuses it) so an abort reaches
			// the sink with its reason.
			h.Watch = telemetry.NewRunWatch()
			h.Watch.NotifyCancel(sink.OnCancel)
		}
		return h
	}
	res, rerr := experiments.Go(pool, func() sim.Result {
		return experiments.Guarded(key, deadline, stall, mkHooks, func(h *telemetry.Hooks) sim.Result {
			res, err := run.Run(h)
			if err != nil {
				panic(err)
			}
			return res
		})
	}).Result()
	if rerr != nil {
		return JobResult{}, rerr
	}
	if prog != nil {
		prog.RunDone()
	}
	var samples []byte
	if sampler != nil {
		var buf bytes.Buffer
		if sampler.WriteJSONL(&buf) == nil {
			samples = buf.Bytes()
		}
	}
	return JobResult{Kind: KindSingle, Result: &res, SamplesJSONL: string(samples)}, nil
}
