#!/bin/sh
# Tier-1 verification: formatting, build, tests, vet, race-detector
# runs over the packages with concurrency (the parallel experiment
# engine and the simulator it drives), and an end-to-end smoke run of
# the CLI tools with telemetry enabled. Run from the repo root:
#
#   ./scripts/verify.sh
#
# Note: the -race runs re-execute the experiment smoke tests under the
# race detector and take a few minutes on a small machine.
set -eux

# gofmt -l prints offending files but exits 0; fail explicitly.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# One metrics registry (internal/obs): no Go file under cmd/ or
# internal/ may publish counters through expvar beside it.
if grep -rl --include='*.go' '"expvar"' cmd internal; then
    echo "the files above import expvar; export metrics through internal/obs" >&2
    exit 1
fi

go build ./...
go test ./...
go vet ./...
# The root benchmarks, one iteration each (about 1 s): none of them
# rots unrun, and BenchmarkWarmupSnapshot fails if a longer window
# does not restore the snapshot its first run left.
go test -run '^$' -bench . -benchtime 1x .
go test -race ./internal/experiments ./internal/sim ./internal/workload
go test -race ./internal/cache ./internal/replacement
go test -race ./internal/service
go test -race ./internal/obs
go test -race ./internal/cluster

# Fault-injection suite: panic isolation, watchdog deadlines,
# checkpoint round-trips, and the invariant checkers.
go test -run 'TestFuture|TestPanic|TestDeadline|TestCheckpoint|TestInvariant|TestStoreCheck|TestTriageCheck|TestMapCheck|TestLRUCheck|TestCheckInvariants' \
    ./internal/experiments ./internal/sim ./internal/cache ./internal/flat ./internal/core ./internal/dram

# Durability suite: the crashable/fault-injecting VFS, crash recovery
# and quarantine in the checkpoint store, degraded read-only mode, and
# the kill/restart chaos harness.
go test ./internal/vfs
go test -run 'TestCheckpointV2Refused|TestCheckpointMidFile|TestCheckpointCrash|TestCheckpointPutReports' ./internal/experiments
go test -run 'TestDegraded|TestSubmitRejected|TestChaos' ./internal/service

# Fuzz the hostile-input parsers briefly: the checkpoint record
# scanner, the job-spec decoder, and the TRC2 trace decoder.
go test -run '^$' -fuzz '^FuzzCheckpointParse$' -fuzztime 5s ./internal/experiments
go test -run '^$' -fuzz '^FuzzJobSpecDecode$' -fuzztime 5s ./internal/service
go test -run '^$' -fuzz '^FuzzTraceV2Decode$' -fuzztime 5s ./internal/trace

# End-to-end smoke: one small figure through the experiment driver, and
# one telemetry-instrumented run producing sampled series + event trace.
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
go run ./cmd/experiments -fig fig05 -warmup 200000 -measure 200000 -j 2 >"$smokedir/fig05.txt"

# Kill-and-resume smoke: an interrupted checkpointed run restarted with
# -resume must reproduce the uninterrupted run's output byte for byte.
# The figures cover every cell kind: Table 1 single-core cells (fig05),
# changed-machine cells (fig07) and multi-core mixes (fig16). A further
# run over the complete store must simulate nothing.
go build -o "$smokedir/experiments" ./cmd/experiments
resume_args="-fig fig05,fig07,fig16 -warmup 200000 -measure 200000 -mwarmup 100000 -mmeasure 100000 -mixes 1 -j 2"
"$smokedir/experiments" $resume_args -csv "$smokedir/clean" >/dev/null
"$smokedir/experiments" $resume_args -resume "$smokedir/ckpt" >/dev/null &
resume_pid=$!
sleep 1 # the run takes about 2.5 s on 2 cores, so the kill lands mid-run
kill -9 "$resume_pid" 2>/dev/null || true # may already have finished
wait "$resume_pid" || true
"$smokedir/experiments" $resume_args -resume "$smokedir/ckpt" -csv "$smokedir/resumed" >/dev/null
for fig in fig05 fig07 fig16; do
    cmp "$smokedir/clean/$fig.csv" "$smokedir/resumed/$fig.csv"
done
"$smokedir/experiments" $resume_args -resume "$smokedir/ckpt" >/dev/null 2>"$smokedir/resume-again.log"
grep -q '^checkpoint: [0-9]* cells restored, 0 simulated$' "$smokedir/resume-again.log"

# Sweep resume smoke: a sweep rerun over its finished store simulates
# nothing and prints the same CSV.
go build -o "$smokedir/sweep" ./cmd/sweep
sweep_args="-bench mcf -sizes 128,512 -degrees 1,2 -llc 1,2 -warmup 100000 -measure 100000 -j 2"
"$smokedir/sweep" $sweep_args -resume "$smokedir/sweep-ckpt" >"$smokedir/sweep1.csv"
"$smokedir/sweep" $sweep_args -resume "$smokedir/sweep-ckpt" >"$smokedir/sweep2.csv" \
    2>"$smokedir/sweep2.log"
grep -q '^checkpoint: [0-9]* cells restored, 0 simulated$' "$smokedir/sweep2.log"
cmp "$smokedir/sweep1.csv" "$smokedir/sweep2.csv"
# Bad input is refused before anything simulates: an unknown policy and
# a store size that does not pack into 8 KB ways each exit 2.
for bad in "-repl bogus" "-sizes 100"; do
    status=0
    "$smokedir/sweep" -bench mcf $bad -warmup 1000 -measure 1000 >/dev/null 2>&1 || status=$?
    test "$status" -eq 2
done

# Golden smoke: the four figures perfbench measures, run with its
# seed-1 arguments (perfbench/figures.go; -j does not change a figure),
# must equal its golden tables byte for byte. The checks above only
# compare runs with each other, which a change that moved every figure
# the same way would pass.
"$smokedir/experiments" -fig fig05,fig09,fig11,fig17 -seed 2 -warmup 80000 -measure 80000 \
    -mwarmup 40000 -mmeasure 40000 -mixes 2 -j 2 -csv "$smokedir/golden" >/dev/null
for fig in fig05 fig09 fig11 fig17; do
    cmp "$smokedir/golden/$fig.csv" "perfbench/golden/figures/$fig.csv"
done

# Sizing golden smoke: at the windows above Triage never provisions a
# store or issues a prefetch, so those tables pin no Triage behaviour.
# At 500K windows it does (mcf prefetches, fig19 allocates ways), so
# these figures pin the partition sizers, the Hawkeye training and the
# metadata store (scripts/golden/sizing/, about 15 s on 2 cores).
"$smokedir/experiments" -fig fig05,fig09,fig19,sens-epoch,ext-utility,ext-ladder,ext-llc-policy \
    -seed 2 -warmup 500000 -measure 500000 -mwarmup 500000 -mmeasure 400000 -mixes 1 -j 2 \
    -csv "$smokedir/sizing" >/dev/null
for fig in fig05 fig09 fig19 sens-epoch ext-utility ext-ladder ext-llc-policy; do
    cmp "$smokedir/sizing/$fig.csv" "scripts/golden/sizing/$fig.csv"
done

go run ./cmd/triagesim -bench mcf -pf triage-1m -warmup 100000 -measure 200000 \
    -sample 50000 -sampleout "$smokedir/samples.jsonl" \
    -events "$smokedir/events.jsonl" >"$smokedir/triagesim.txt"
test -s "$smokedir/samples.jsonl"
test -s "$smokedir/events.jsonl"
grep -q '"meta_ways"' "$smokedir/samples.jsonl"

# Service smoke: the same job run directly (triagesim -json) and through
# the triaged HTTP service (triagectl) must produce byte-identical
# results and sampled series; a second submission must be served from
# the warm store, still byte-identical; SIGTERM must drain cleanly.
go build -o "$smokedir/triagesim" ./cmd/triagesim
go build -o "$smokedir/triaged" ./cmd/triaged
go build -o "$smokedir/triagectl" ./cmd/triagectl
"$smokedir/triagesim" -bench mcf -pf triage-1m -warmup 100000 -measure 200000 \
    -sample 50000 -sampleout "$smokedir/direct-samples.jsonl" \
    -json "$smokedir/direct.json" >/dev/null
"$smokedir/triaged" -listen 127.0.0.1:0 -portfile "$smokedir/port" \
    -store "$smokedir/store" -queue 8 -workers 2 &
triaged_pid=$!
for _ in $(seq 1 50); do
    [ -s "$smokedir/port" ] && break
    sleep 0.1
done
addr=$(cat "$smokedir/port")
"$smokedir/triagectl" -addr "$addr" submit -bench mcf -pf triage-1m \
    -warmup 100000 -measure 200000 -sample 50000 -wait \
    -o "$smokedir/api.json" -telemetry "$smokedir/api-samples.jsonl"
cmp "$smokedir/direct.json" "$smokedir/api.json"
cmp "$smokedir/direct-samples.jsonl" "$smokedir/api-samples.jsonl"
# Observability smoke against the live server: /metrics must serve a
# parseable Prometheus exposition carrying the service counters, and
# the finished job must have a fetchable trace reaching result-served.
"$smokedir/triagectl" -addr "$addr" metrics -prom >"$smokedir/metrics.prom"
grep -q '^triaged_submitted_total 1$' "$smokedir/metrics.prom"
grep -q '^# TYPE triaged_run_seconds histogram$' "$smokedir/metrics.prom"
# The JSON rendering reads the same registry: the counters perfbench
# reads are numbers, and submitted matches the text's 1.
"$smokedir/triagectl" -addr "$addr" metrics >"$smokedir/metrics.json"
for key in deduped store_hits failed; do
    grep -Eq "^  \"$key\": [0-9]+,?\$" "$smokedir/metrics.json"
done
grep -Eq '^  "submitted": 1,?$' "$smokedir/metrics.json"
jobid=$("$smokedir/triagectl" -addr "$addr" submit -bench mcf -pf triage-1m \
    -warmup 100000 -measure 200000 -sample 50000)
"$smokedir/triagectl" -addr "$addr" result -o "$smokedir/traced.json" "$jobid"
"$smokedir/triagectl" -addr "$addr" trace "$jobid" >"$smokedir/trace.txt"
grep -q 'admit' "$smokedir/trace.txt"
grep -q 'result-served' "$smokedir/trace.txt"
# Warm-restore smoke: a longer measurement window with the same warmup
# and seed restores the snapshot taken where the first job's run
# stopped, so it skips that job's whole 100K+200K run and steps only
# the 100K instructions its window adds; its result must match a direct
# cold run byte for byte, and the cache must hold no more than its
# 64 MiB budget.
"$smokedir/triagesim" -bench mcf -pf triage-1m -warmup 100000 -measure 300000 \
    -json "$smokedir/direct-restore.json" >/dev/null
"$smokedir/triagectl" -addr "$addr" submit -bench mcf -pf triage-1m \
    -warmup 100000 -measure 300000 -wait -o "$smokedir/api-restore.json"
cmp "$smokedir/direct-restore.json" "$smokedir/api-restore.json"
"$smokedir/triagectl" -addr "$addr" metrics -prom >"$smokedir/metrics-restore.prom"
grep -q '^triaged_warm_restores_total 1$' "$smokedir/metrics-restore.prom"
grep -q '^triaged_warm_restored_instructions_total 300000$' "$smokedir/metrics-restore.prom"
awk '$1 == "triaged_warm_held_bytes" { held = $2 + 0; found = 1 }
    END { exit !(found && held > 0 && held <= 67108864) }' "$smokedir/metrics-restore.prom"
# A shorter window cannot resume that snapshot: it runs cold, counts one
# more miss and no restore, and still matches a direct run.
misses=$(awk '$1 == "triaged_warm_misses_total" { print $2 }' "$smokedir/metrics-restore.prom")
"$smokedir/triagesim" -bench mcf -pf triage-1m -warmup 100000 -measure 150000 \
    -json "$smokedir/direct-short.json" >/dev/null
"$smokedir/triagectl" -addr "$addr" submit -bench mcf -pf triage-1m \
    -warmup 100000 -measure 150000 -wait -o "$smokedir/api-short.json"
cmp "$smokedir/direct-short.json" "$smokedir/api-short.json"
"$smokedir/triagectl" -addr "$addr" metrics -prom >"$smokedir/metrics-short.prom"
grep -q '^triaged_warm_restores_total 1$' "$smokedir/metrics-short.prom"
awk -v before="$misses" '$1 == "triaged_warm_misses_total" { found = ($2 == before + 1) }
    END { exit !found }' "$smokedir/metrics-short.prom"
kill -TERM "$triaged_pid"
wait "$triaged_pid" # graceful drain must exit 0
# Restart on the same store: the resubmission must be served from the
# warm result store (no re-simulation), still byte-identical.
rm -f "$smokedir/port"
"$smokedir/triaged" -listen 127.0.0.1:0 -portfile "$smokedir/port" \
    -store "$smokedir/store" -queue 8 -workers 2 &
triaged_pid=$!
for _ in $(seq 1 50); do
    [ -s "$smokedir/port" ] && break
    sleep 0.1
done
addr=$(cat "$smokedir/port")
"$smokedir/triagectl" -addr "$addr" submit -bench mcf -pf triage-1m \
    -warmup 100000 -measure 200000 -sample 50000 -wait \
    -o "$smokedir/warm.json" 2>"$smokedir/warm.log"
cmp "$smokedir/direct.json" "$smokedir/warm.json"
grep -q "warm store" "$smokedir/warm.log"
kill -TERM "$triaged_pid"
wait "$triaged_pid"
# Start-up drain smoke: a SIGTERM sent the moment the port file appears
# must still drain (the handler is installed before the address is
# published) and exit 0. The port file is polled without sleeping so
# the signal lands within microseconds of the publish; three rounds.
for _ in 1 2 3; do
    rm -f "$smokedir/port"
    "$smokedir/triaged" -listen 127.0.0.1:0 -portfile "$smokedir/port" \
        -store "$smokedir/sigterm-store" -queue 8 -workers 1 \
        2>"$smokedir/sigterm.log" &
    triaged_pid=$!
    n=0
    until [ -s "$smokedir/port" ] || [ "$n" -ge 5000000 ]; do n=$((n + 1)); done
    kill -TERM "$triaged_pid"
    wait "$triaged_pid"
    grep -q 'drained' "$smokedir/sigterm.log"
done

# Trace-corpus smoke: materialize a generator prefix into a content-
# addressed corpus (tracegen prints the sha256 id on stdout), replay it
# by hash through triagesim, and require the byte-identical result the
# live generator produces; -inspect must read the TRC2 entry. The
# capture uses the generator's core-0 base (1<<40) and is long enough
# that the replay loop never wraps inside the simulated window.
go build -o "$smokedir/tracegen" ./cmd/tracegen
tid=$("$smokedir/tracegen" -bench mcf -seed 42 -n 700000 -base $((1<<40)) \
    -corpus "$smokedir/corpus")
"$smokedir/tracegen" -inspect "$smokedir/corpus/sha256-${tid#sha256:}.trc2" \
    | grep -q 'records      : 700000'
"$smokedir/triagesim" -bench mcf -pf triage-1m -seed 42 \
    -warmup 100000 -measure 200000 -json "$smokedir/gen.json" >/dev/null
"$smokedir/triagesim" -corpus "$smokedir/corpus" -trace "$tid" -pf triage-1m \
    -warmup 100000 -measure 200000 -json "$smokedir/replay.json" >/dev/null
cmp "$smokedir/gen.json" "$smokedir/replay.json"
# The standalone-file path: tracegen -o writes TRC2, -inspect reads all
# of it back, and a copy with its last bytes cut off must fail -inspect.
"$smokedir/tracegen" -bench mcf -n 100000 -o "$smokedir/mcf.trc2" >/dev/null
"$smokedir/tracegen" -inspect "$smokedir/mcf.trc2" | grep -q 'records      : 100000$'
size=$(wc -c <"$smokedir/mcf.trc2")
head -c $((size - 5)) "$smokedir/mcf.trc2" >"$smokedir/torn.trc2"
if "$smokedir/tracegen" -inspect "$smokedir/torn.trc2" >/dev/null 2>&1; then
    echo "tracegen -inspect read a torn TRC2 file" >&2
    exit 1
fi

# Cluster smoke: the same two figures run once on a plain single-node
# triaged and once distributed across a coordinator plus two worker
# processes — one of which is kill -9'd mid-run, so its leased job is
# requeued onto the survivor. The tables must be byte-identical and
# the cluster status view must have shown both workers.
go build -o "$smokedir/triageworker" ./cmd/triageworker
rm -f "$smokedir/port"
"$smokedir/triaged" -listen 127.0.0.1:0 -portfile "$smokedir/port" \
    -store "$smokedir/solo-store" -queue 16 -workers 2 &
triaged_pid=$!
for _ in $(seq 1 50); do
    [ -s "$smokedir/port" ] && break
    sleep 0.1
done
addr=$(cat "$smokedir/port")
"$smokedir/triagectl" -addr "$addr" figures -j 2 -o "$smokedir/solo" \
    -warmup 200000 -measure 200000 fig05 fig06
kill -TERM "$triaged_pid"
wait "$triaged_pid"
rm -f "$smokedir/port"
"$smokedir/triaged" -cluster -lease 2s -listen 127.0.0.1:0 \
    -portfile "$smokedir/port" -store "$smokedir/cluster-store" -queue 16 &
triaged_pid=$!
for _ in $(seq 1 50); do
    [ -s "$smokedir/port" ] && break
    sleep 0.1
done
addr=$(cat "$smokedir/port")
"$smokedir/triageworker" -coordinator "$addr" -name smoke-a &
worker_a=$!
"$smokedir/triageworker" -coordinator "$addr" -name smoke-b &
worker_b=$!
"$smokedir/triagectl" -addr "$addr" figures -j 2 -o "$smokedir/clus" \
    -warmup 200000 -measure 200000 fig05 fig06 &
figures_pid=$!
sleep 1
"$smokedir/triagectl" -addr "$addr" status >"$smokedir/cluster-status.txt"
grep -q 'smoke-a' "$smokedir/cluster-status.txt"
grep -q 'smoke-b' "$smokedir/cluster-status.txt"
kill -9 "$worker_b" 2>/dev/null || true
wait "$figures_pid"
cmp "$smokedir/solo/fig05.txt" "$smokedir/clus/fig05.txt"
cmp "$smokedir/solo/fig06.txt" "$smokedir/clus/fig06.txt"
# The kill was observed: the dead worker's lease lapsed and its figure
# was requeued onto the survivor.
"$smokedir/triagectl" -addr "$addr" status | grep -q 'requeued: [1-9]'
# One single job through the coordinator, run on the surviving worker:
# its result must match the direct run byte for byte, its trace must
# show the run span naming the worker and the result being served, and
# the coordinator's Prometheus exposition must count the upload.
jobid=$("$smokedir/triagectl" -addr "$addr" submit -bench mcf -pf triage-1m \
    -warmup 100000 -measure 200000 -sample 50000)
"$smokedir/triagectl" -addr "$addr" wait "$jobid"
"$smokedir/triagectl" -addr "$addr" result -o "$smokedir/clus-single.json" "$jobid"
cmp "$smokedir/direct.json" "$smokedir/clus-single.json"
"$smokedir/triagectl" -addr "$addr" trace "$jobid" >"$smokedir/clus-trace.txt"
grep -q ' run .*"worker":' "$smokedir/clus-trace.txt"
grep -q 'result-served' "$smokedir/clus-trace.txt"
"$smokedir/triagectl" -addr "$addr" metrics -prom >"$smokedir/clus-metrics.prom"
grep -q '^triaged_cluster_results_total [1-9]' "$smokedir/clus-metrics.prom"
# Worker SIGTERM smoke: the survivor is stopped while it holds the
# lease of a job that runs for seconds. It must finish and upload that
# job, then exit 0: the job already reads done once the worker is gone,
# and nothing was requeued.
requeued=$("$smokedir/triagectl" -addr "$addr" status | sed -n 's/.*requeued: \([0-9]*\).*/\1/p')
jobid=$("$smokedir/triagectl" -addr "$addr" submit -bench mcf -pf triage-1m \
    -warmup 100000 -measure 30000000)
for _ in $(seq 1 100); do
    "$smokedir/triagectl" -addr "$addr" status "$jobid" | grep -q '"state": "running"' && break
    sleep 0.1
done
kill -TERM "$worker_a"
wait "$worker_a"
"$smokedir/triagectl" -addr "$addr" status "$jobid" | grep -q '"state": "done"'
"$smokedir/triagectl" -addr "$addr" status | grep -q "requeued: $requeued "
wait "$worker_b" 2>/dev/null || true
kill -TERM "$triaged_pid"
wait "$triaged_pid"

# Netfault chaos smoke: the same two figures again, now with the
# coordinator's listener resetting a fraction of accepted connections
# and every worker RPC passing through a seeded fault transport
# (refusals, resets, lost responses, truncation, duplicate delivery,
# latency spikes). The retry/idempotency layer must absorb all of it:
# tables byte-identical to the single-node run, and the fault counters
# reported on exit. The copylocks vet guards the wire types the retry
# paths copy around.
go vet -copylocks ./internal/netfault ./internal/cluster
rm -f "$smokedir/port"
"$smokedir/triaged" -cluster -lease 2s -listen 127.0.0.1:0 \
    -portfile "$smokedir/port" -store "$smokedir/chaos-store" -queue 16 \
    -netfault 'seed=11,refuse=0.05' 2>"$smokedir/chaos-coord.log" &
triaged_pid=$!
for _ in $(seq 1 50); do
    [ -s "$smokedir/port" ] && break
    sleep 0.1
done
addr=$(cat "$smokedir/port")
"$smokedir/triageworker" -coordinator "$addr" -name chaos-a -jitterseed 21 \
    -netfault 'seed=21,refuse=0.05,drop=0.05,dup=0.05,delay=0.2:5ms' \
    2>"$smokedir/chaos-a.log" &
worker_a=$!
"$smokedir/triageworker" -coordinator "$addr" -name chaos-b -jitterseed 22 \
    -netfault 'seed=22,reset=0.05,trunc=0.05,dup=0.05,delay=0.2:5ms' \
    2>"$smokedir/chaos-b.log" &
worker_b=$!
"$smokedir/triagectl" -addr "$addr" figures -j 2 -o "$smokedir/chaosfig" \
    -warmup 200000 -measure 200000 fig05 fig06
cmp "$smokedir/solo/fig05.txt" "$smokedir/chaosfig/fig05.txt"
cmp "$smokedir/solo/fig06.txt" "$smokedir/chaosfig/fig06.txt"
kill -TERM "$worker_a" "$worker_b"
wait "$worker_a"
wait "$worker_b"
kill -TERM "$triaged_pid"
wait "$triaged_pid"
grep -q 'netfault injected' "$smokedir/chaos-coord.log"
grep -q 'netfault injected' "$smokedir/chaos-a.log"
grep -q 'netfault injected' "$smokedir/chaos-b.log"
