#!/bin/sh
# CI gate: formatting, vet, build, and the full test suite under the
# race detector (which exercises the internal/harness worker pool on
# every parallelized experiment sweep).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race (short) =="
go test -race -short ./...

echo "== perfbench replicas and goldens =="
# perfbench is its own module, so ./... above never reaches it. Its
# tests pin the benchmark's replicas of library code and the seed-1 and
# seed-7919 output goldens (which hash kernel.Stats) against the
# library as it stands.
(cd perfbench && go test ./...)

echo "== artifact + trace smoke =="
# Round-trip the observability pipeline: emsim writes an artifact and a
# Perfetto trace, emtrace validates both shapes (full counter set,
# monotone latency quantiles, balanced flow arrows), and emreport
# replays the exported trace into an attribution report.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/emsim -ms 50 -attrib -quiet -json-out "$tmp/artifact.json" -trace-out "$tmp/trace.json" >/dev/null
go run ./cmd/emtrace -check-artifact "$tmp/artifact.json"
go run ./cmd/emtrace -check-trace "$tmp/trace.json"
go run ./cmd/emreport -trace "$tmp/trace.json" -quiet >/dev/null
go run ./cmd/emreport -policy rm -ms 50 -quiet -json-out "$tmp/report.json" >/dev/null

echo "== single-CPU artifact regression (deterministic content vs results/) =="
# The multicore refactor guarantees the classic one-CPU build is
# byte-for-byte unchanged: regenerate the committed simulation
# artifacts and compare, ignoring only the volatile "run" block.
go run ./cmd/emsim -ms 500 -attrib -quiet -json-out "$tmp/emsim.json" -trace-out "$tmp/emsim-trace.json" >/dev/null
go run ./scripts/artifactdiff results/emsim.json "$tmp/emsim.json"
cmp results/emsim-trace.json "$tmp/emsim-trace.json"
go run ./cmd/emreport -policy rm -ms 500 -quiet -json -json-out "$tmp/emreport.json" -txt-out "$tmp/emreport.txt" >/dev/null
go run ./scripts/artifactdiff results/emreport.json "$tmp/emreport.json"
cmp results/emreport.txt "$tmp/emreport.txt"

echo "== experiment artifact regression (tables, sweeps, flight recorder vs results/) =="
# Regenerate the remaining committed artifacts with scripts/repro.sh's
# commands and compare them with results/: Tables 1-3, Figures 11-12,
# the Section 7 IPC comparison, the ablations (their lock grid boots
# M = 1, 2 and 4, and the ready-counter ablation installs its own
# scheduler) and the sampled flight-recorder artifact with its emstat
# report. artifactdiff ignores only the volatile "run" block; emstat's
# first line names its input path, so its report compares from line 2.
go run ./cmd/schedtab -quiet -json-out "$tmp/schedtab.json" -txt-out "$tmp/schedtab.txt" >/dev/null
go run ./scripts/artifactdiff results/schedtab.json "$tmp/schedtab.json"
cmp results/schedtab.txt "$tmp/schedtab.txt"
go run ./cmd/sembench -quiet -json-out "$tmp/figures11-12.json" >"$tmp/figures11-12.txt"
go run ./scripts/artifactdiff results/figures11-12.json "$tmp/figures11-12.json"
cmp results/figures11-12.txt "$tmp/figures11-12.txt"
go run ./cmd/ipcbench -quiet -json-out "$tmp/ipc.json" >"$tmp/ipc.txt"
go run ./scripts/artifactdiff results/ipc.json "$tmp/ipc.json"
cmp results/ipc.txt "$tmp/ipc.txt"
go run ./cmd/ablate -quiet -json-out "$tmp/ablation.json" >"$tmp/ablation.txt"
go run ./scripts/artifactdiff results/ablation.json "$tmp/ablation.json"
cmp results/ablation.txt "$tmp/ablation.txt"
go run ./cmd/emsim -ms 500 -sample-us 500 -attrib -quiet -json-out "$tmp/telemetry.json" >/dev/null
go run ./scripts/artifactdiff results/telemetry.json "$tmp/telemetry.json"
go run ./cmd/emstat "$tmp/telemetry.json" >"$tmp/emstat.txt"
tail -n +2 results/emstat.txt >"$tmp/emstat.want"
tail -n +2 "$tmp/emstat.txt" | cmp "$tmp/emstat.want" -

echo "== breakdown figure regression (Figures 3-5 vs results/) =="
# The breakdown percentages are pinned exactly: regenerate Figures 3-5
# at the committed 100 workloads/point and compare them with results/,
# ignoring only the volatile "run" block (about a minute on 2 CPUs).
for div in 1 2 3; do
    go run ./cmd/breakdown -div "$div" -workloads 100 -quiet -json-out "$tmp/figure$((div + 2)).json" >/dev/null
    go run ./scripts/artifactdiff "results/figure$((div + 2)).json" "$tmp/figure$((div + 2)).json"
done

echo "== partition search regression (csdsearch vs results/) =="
# The §5.5.3 search must keep choosing the same CSD-3 split at the same
# overhead fraction: regenerate the committed n = 100 search and compare
# it with results/, ignoring only the volatile "run" block.
go run ./cmd/csdsearch -n 100 -u 0.7 -quiet -json-out "$tmp/csdsearch.json" >/dev/null
go run ./scripts/artifactdiff results/csdsearch.json "$tmp/csdsearch.json"

echo "== multicore determinism gate =="
# An M=4 run must produce identical artifacts regardless of host
# parallelism (GOMAXPROCS) and harness fan-out (-workers).
GOMAXPROCS=1 go run ./cmd/emsim -cpus 4 -ms 200 -attrib -quiet -json-out "$tmp/m4a.json" >/dev/null
GOMAXPROCS=8 go run ./cmd/emsim -cpus 4 -ms 200 -attrib -quiet -json-out "$tmp/m4b.json" >/dev/null
go run ./scripts/artifactdiff "$tmp/m4a.json" "$tmp/m4b.json"
go run ./cmd/ablate -workers 1 -quiet -lock-ms 100 -sweep-workloads 2 -json-out "$tmp/abl1.json" >/dev/null
go run ./cmd/ablate -workers 8 -quiet -lock-ms 100 -sweep-workloads 2 -json-out "$tmp/abl8.json" >/dev/null
go run ./scripts/artifactdiff "$tmp/abl1.json" "$tmp/abl8.json"

echo "== lock-free vlink race gate =="
# The wait-free MPMC ring is the one data structure real goroutines hit
# concurrently: hammer its property tests under the race detector at
# several GOMAXPROCS settings (the stress test sweeps 1/4/8 internally).
go test -race -run 'TestVLink' -count=5 ./internal/ipc/vlink/

echo "== native fuzz smoke (committed corpora + 10s each) =="
# Both native fuzz targets: syncheck's trace-JSON parser/checker and the
# scenario repro loader's marshal round-trip. The committed seed corpora
# replay in every plain `go test`; here each target also explores for a
# few seconds.
go test -run '^$' -fuzz FuzzSyncheckParse -fuzztime 10s ./internal/ipc/syncheck/
go test -run '^$' -fuzz FuzzReproRoundTrip -fuzztime 10s ./internal/scenario/

echo "== coverage ratchet =="
# Statement coverage of the attribution, IPC, kernel, and scenario
# packages must not drop below the committed baseline
# (results/coverage.txt).
./scripts/cover.sh

echo "== fuzz smoke (fixed seed, zero violations) =="
# A deterministic slice of the emfuzz campaign: 50 scenarios sweep all
# four policies, both semaphore schemes, and every archetype; one run
# pinned single-CPU, one pinned quad-core. Any oracle violation exits 1.
go run ./cmd/emfuzz -scenarios 50 -seed 1 -cpus 1 -quiet -json-out "$tmp/fuzz1.json" >/dev/null
go run ./cmd/emfuzz -scenarios 50 -seed 1 -cpus 4 -quiet -json-out "$tmp/fuzz4.json" >/dev/null
grep -q '"schema": "emeralds.fuzz/v1"' "$tmp/fuzz1.json"
go run ./cmd/emfuzz -scenarios 50 -seed 1 -cpus 4 -workers 1 -quiet -json-out "$tmp/fuzz4w1.json" >/dev/null
go run ./scripts/artifactdiff "$tmp/fuzz4.json" "$tmp/fuzz4w1.json"

echo "== telemetry determinism gate =="
# The flight recorder is a pure observer: a sampled emsim artifact's
# timeseries block must be byte-identical across host parallelism
# (artifactdiff ignores only the volatile "run" key), and emstat must be
# able to replay it into an SLO report.
GOMAXPROCS=1 go run ./cmd/emsim -ms 200 -sample-us 500 -quiet -json-out "$tmp/ts1.json" >/dev/null
GOMAXPROCS=8 go run ./cmd/emsim -ms 200 -sample-us 500 -quiet -json-out "$tmp/ts8.json" >/dev/null
go run ./scripts/artifactdiff "$tmp/ts1.json" "$tmp/ts8.json"
grep -q '"schema": "emeralds.timeseries/v1"' "$tmp/ts1.json"
go run ./cmd/emstat "$tmp/ts1.json" >/dev/null

echo "== live scrape gate (OpenMetrics well-formedness) =="
# Start a long campaign with the scrape surface up, lint one /metrics
# exposition against the OpenMetrics grammar, then tear the campaign
# down (its correctness is gated by the fuzz smoke above).
go build -o "$tmp/emfuzz" ./cmd/emfuzz
"$tmp/emfuzz" -scenarios 5000 -seed 1 -cpus 1 -metrics-addr localhost:19418 -quiet >/dev/null &
fuzz_pid=$!
go run ./scripts/omlint -retry 30s http://localhost:19418/metrics
kill "$fuzz_pid" 2>/dev/null || true
wait "$fuzz_pid" 2>/dev/null || true

echo "== benchmark smoke (one iteration each) =="
# Every testing.B benchmark in the module, the root suite and the
# package benchmarks alike, runs once: a benchmark that panics or
# fails its own checks fails here. Speed is judged by perfbench.
go test -run '^$' -bench . -benchtime 1x ./...

echo "== allocation smoke gate =="
# The zero-alloc contracts behind the hot-path redesign, pinned with
# testing.AllocsPerRun: event dispatch off the timer wheel and retiming
# a pending event, bitmap queue push/pop, the FP scheduler's select,
# the instrumented CSD select, Kernel.Stats summing the per-CPU counter
# shards (called on every telemetry tick), the kernel run loop of an
# untraced 30-task emsim run under all five policies after warm-up,
# trace recording into a full ring, the Perfetto export, whose
# allocations must not grow with the event count, a telemetry tick into
# a full ring, and the attribution replay, which allocates fewer than
# once per 50 events.
# Two byte gates ride along (AllocationBytes): recording into the trace
# ring allocates only the 32 kB blocks it fills and their table, and the
# attribution replay of the emsim trace allocates under 200 bytes per
# event, which a slab of pointer-laden intervals would exceed.
# A steady-state allocation anywhere on these paths fails here before it
# can show up as a bench regression.
go test -run 'ZeroAlloc|AllocationFree|AllocationBytes' \
    ./internal/sim/ ./internal/schedq/ ./internal/sched/ ./internal/metrics/ ./internal/kernel/ \
    ./internal/trace/ ./internal/telemetry/ ./internal/attrib/

echo "ci: all green"
