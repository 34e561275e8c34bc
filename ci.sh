#!/bin/sh
# ci.sh - the repo's verification gate: formatting, static analysis
# (go vet plus the yancvet lock/clock/error invariant suite), the
# full test suite under the race detector, a doubled run of the
# concurrency stress/chaos battery, a benchmark smoke pass (every
# benchmark runs one iteration, so a broken rig fails CI even when no
# one is measuring), the E14 multicore scaling gate (fails the build
# if 4 workers are slower than 1 on a 4+-core machine), the E15
# zero-copy fan-out gate (fails if delivering to 8 subscribers costs
# more than 2x delivering to 1), and the E16 replication gate (fails
# if a partitioned or killed leader loses or duplicates an
# acknowledged write, or if failover convergence exceeds its budget),
# and the E17 churn gate (64 TCP switches under flow-dir churn: fails
# if any tracked create/modify never reaches its switch or the
# create→installed p99 collapses; skipped below 4 cores, where the
# unthrottled burst is all scheduler queueing), and the E18 ring gate
# (fails if the libyanc submission ring's bulk flow push drops below
# 5x the file-I/O path at the quick sizes, or if a fanned-out
# packet-out stages more than one copy of the frame; skipped below 4
# cores, where wall-clock ratios are hypervisor-steal noise), and a
# two-second churn_scan run of the repository benchmark, whose verifier
# (conservation, sink table = file system, every scanned flow parses
# back) sets the exit code; no number it prints is compared.
# Run before every push.
set -eu
cd "$(dirname "$0")"

echo "==> gofmt"
unformatted=$(find . -name '*.go' -not -path './vendor/*' -print0 | xargs -0 gofmt -l)
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt: the following files need 'gofmt -w':" >&2
    echo "$unformatted" | sed 's/^/    /' >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> yancvet (lockorder/lockpair/snapshotpub/clockban/atomicfield/errdrop/hotalloc/txescape/waitgraph)"
go run ./cmd/yancvet ./...

# The -json artifact leg: machine-readable findings, diffed against the
# committed baseline so a finding can neither appear nor silently vanish
# without a deliberate baseline update in the same commit. The baseline
# holds normalized "posn" lines (paths relative to the repo root,
# sorted); today it is empty because the tree vets clean.
echo "==> yancvet -json artifact (diff against vet_baseline.json)"
vet_raw=$(mktemp)
vet_posns=$(mktemp)
go run ./cmd/yancvet -json ./... >"$vet_raw" 2>&1 || true
grep -o '"posn": "[^"]*"' "$vet_raw" | sed "s|$(pwd)/||g" | LC_ALL=C sort >"$vet_posns" || true
if ! diff -u vet_baseline.json "$vet_posns"; then
    echo "FAIL: yancvet findings drifted from vet_baseline.json (left: committed baseline, right: this tree)." >&2
    echo "      Fix the findings, or update the baseline deliberately in the same commit." >&2
    rm -f "$vet_raw" "$vet_posns"
    exit 1
fi
rm -f "$vet_raw" "$vet_posns"

echo "==> go test -race"
go test -race ./...

echo "==> go test -race concurrency battery (Stress|Chaos|Alloc, -count=2)"
go test -race -run 'Stress|Chaos|Alloc' -count=2 ./...

echo "==> go test -bench (smoke, 1 iteration)"
go test -bench=. -benchtime=1x -run='^$' ./...

echo "==> E14 smoke (multicore scaling sanity gate)"
go run ./cmd/yancbench -run E14 -quick -gate

echo "==> E15 smoke (zero-copy fan-out gate: 8 subscribers <= 2x 1)"
go run ./cmd/yancbench -run E15 -quick -gate

echo "==> E16 smoke (replication gate: failover loses nothing, applies once)"
go run ./cmd/yancbench -run E16 -quick -gate

if [ "$(nproc 2>/dev/null || echo 1)" -ge 4 ]; then
    echo "==> E17 smoke (churn gate: zero lost installs, p99 within budget)"
    go run ./cmd/yancbench -run E17 -quick -gate
    echo "==> E18 smoke (ring gate: bulk push >= 5x file I/O, one staged packet-out copy)"
    go run ./cmd/yancbench -run E18 -quick -gate
else
    echo "==> E17 smoke: skipped (<4 cores)"
    echo "==> E18 smoke: skipped (<4 cores)"
fi

echo "==> yancperf smoke (churn_scan, 2 s: the verifier's exit code is the gate)"
go run ./bench -workload churn_scan -seconds 2 -seed 3

echo "==> ok"
