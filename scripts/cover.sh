#!/bin/sh
# Coverage ratchet over the schedulability analysis, the attribution
# replay and the IPC, kernel and scenario packages: measures
# `go test -cover` statement coverage and fails if any package drops
# more than EPSILON below the committed baseline in results/coverage.txt.
# Regenerate the baseline after intentionally raising coverage with:
#
#   ./scripts/cover.sh -update
set -eu
cd "$(dirname "$0")/.."
BASELINE=results/coverage.txt
PKGS="emeralds/internal/analysis emeralds/internal/attrib emeralds/internal/ipc emeralds/internal/ipc/syncheck emeralds/internal/ipc/vlink emeralds/internal/kernel emeralds/internal/scenario"
EPSILON=3 # tenths of a percentage point

# tenths prints a one-decimal percentage such as 92.4 as a whole number
# of tenths (924), so that the drop is compared exactly: in floating
# point, 92.4 - 0.3 is 92.10000000000001 and a measured 92.1 would fail.
tenths() {
    awk -v x="$1" 'BEGIN { split(x, p, "."); printf "%d\n", p[1] * 10 + substr(p[2] "0", 1, 1) }'
}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
# "ok  <pkg>  0.1s  coverage: 61.5% of statements" -> "<pkg> 61.5"
go test -count=1 -cover $PKGS \
    | awk '$1 == "ok" { for (i = 1; i <= NF; i++) if ($i == "coverage:") { p = $(i+1); gsub("%", "", p); print $2, p } }' \
    | sort > "$tmp"

if [ "${1:-}" = "-update" ]; then
    cp "$tmp" "$BASELINE"
    echo "cover: baseline updated:"
    cat "$BASELINE"
    exit 0
fi

if [ ! -f "$BASELINE" ]; then
    echo "cover: no baseline at $BASELINE; run ./scripts/cover.sh -update" >&2
    exit 1
fi

status=0
while read -r pkg want; do
    got=$(awk -v p="$pkg" '$1 == p { print $2 }' "$tmp")
    if [ -z "$got" ]; then
        echo "cover: FAIL $pkg: no coverage reported (package deleted?)" >&2
        status=1
        continue
    fi
    if [ "$(tenths "$got")" -lt $(($(tenths "$want") - EPSILON)) ]; then
        echo "cover: FAIL $pkg: ${got}% < baseline ${want}%" >&2
        status=1
    else
        echo "cover: ok   $pkg: ${got}% (baseline ${want}%)"
    fi
done < "$BASELINE"
exit $status
