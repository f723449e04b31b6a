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
# Statement coverage of the IPC, kernel, and scenario packages must not
# drop below the committed baseline (results/coverage.txt).
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
# timeseries block must be byte-identical across harness fan-out and
# host parallelism (artifactdiff ignores only the volatile "run" key),
# and emstat must be able to replay it into an SLO report.
GOMAXPROCS=1 go run ./cmd/emsim -ms 200 -sample-us 500 -workers 1 -quiet -json-out "$tmp/ts1.json" >/dev/null
GOMAXPROCS=8 go run ./cmd/emsim -ms 200 -sample-us 500 -workers 8 -quiet -json-out "$tmp/ts8.json" >/dev/null
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
# testing.AllocsPerRun: event dispatch off the timer wheel, bitmap
# queue push/pop, the FP scheduler's select, the instrumented CSD
# select, Kernel.Stats summing the per-CPU counter shards (called on
# every telemetry tick), trace recording into a full ring, and the
# Perfetto export, whose allocations must not grow with the event count.
# A steady-state allocation anywhere on these paths fails here before it
# can show up as a bench regression.
go test -run 'ZeroAlloc|AllocationFree' \
    ./internal/sim/ ./internal/schedq/ ./internal/sched/ ./internal/metrics/ ./internal/kernel/ \
    ./internal/trace/

echo "ci: all green"
