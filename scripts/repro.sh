#!/bin/sh
# Regenerates every table and figure of the paper's evaluation into
# results/, as both human-readable .txt and versioned .json artifacts
# (schema emeralds.artifact/v1; see EXPERIMENTS.md "Regenerating
# results").
#
# Figures 3-5 dominate the runtime. The sweep fans out over all CPUs
# through internal/harness — WORKLOADS=500 (the paper's sample size)
# completes in wall time ~(serial time / NumCPU); the default of 100
# already gives stable shapes. Series are bit-identical for any
# WORKERS value.
set -eu
cd "$(dirname "$0")/.."
WORKLOADS="${WORKLOADS:-100}"
WORKERS="${WORKERS:-0}" # 0 = all CPUs
mkdir -p results

echo "== Tables 1-3 / Figure 2 =="
go run ./cmd/schedtab -json -txt-out results/schedtab.txt

echo "== Figures 3-5 (breakdown utilization, $WORKLOADS workloads/point, workers=$WORKERS) =="
for div in 1 2 3; do
    go run ./cmd/breakdown -div "$div" -workloads "$WORKLOADS" -workers "$WORKERS" \
        -json -json-out "results/figure$((div + 2)).json" | tee "results/figure$((div + 2)).txt"
done

echo "== Figures 11-12 (semaphore overhead) =="
go run ./cmd/sembench -workers "$WORKERS" -json -json-out results/figures11-12.json | tee results/figures11-12.txt

echo "== Section 7 (state messages vs mailboxes) =="
go run ./cmd/ipcbench -workers "$WORKERS" -json -json-out results/ipc.json | tee results/ipc.txt

echo "== Table 2 run: artifact + Perfetto trace + attribution =="
go run ./cmd/emsim -ms 500 -attrib -quiet -json-out results/emsim.json -trace-out results/emsim-trace.json \
    | tee results/emsim.txt
go run ./cmd/emtrace -check-artifact results/emsim.json
go run ./cmd/emtrace -check-trace results/emsim-trace.json

echo "== Deadline-miss root-cause report (RM overload on Table 2) =="
go run ./cmd/emreport -policy rm -ms 500 -quiet -json -json-out results/emreport.json \
    -txt-out results/emreport.txt

echo "== Flight recorder: sampled artifact + SLO report =="
go run ./cmd/emsim -ms 500 -sample-us 500 -attrib -quiet -json-out results/telemetry.json >/dev/null
go run ./cmd/emstat results/telemetry.json | tee results/emstat.txt

echo "== Section 5.5.3 (partition search) =="
go run ./cmd/csdsearch -n 100 -u 0.7 -json | tee results/csdsearch.txt

echo "== Ablations (beyond the paper) =="
go run ./cmd/ablate -workers "$WORKERS" -json -json-out results/ablation.json | tee results/ablation.txt

echo "== Examples (printed output) =="
mkdir -p results/examples
for dir in examples/*/; do
    go run "./$dir" >"results/examples/$(basename "$dir").txt"
done

echo "done; see results/ (.txt tables + .json artifacts)"
