#!/bin/sh
# ci.sh - the repo's verification gate. Run before every push. Legs, in
# order; the first failure stops the run:
#
#   gofmt      every non-vendored .go file is formatted
#   go vet     the standard analyzers
#   yancvet    the lock/clock/error/alloc invariant suite, then its -json
#              findings diffed against vet_baseline.json (empty today)
#   cross      the product builds for darwin/arm64: it has no OS-specific
#              file and must not grow one (./bench is left out: it uses
#              syscall.Nanosleep and RUSAGE_THREAD by design)
#   race       the full test suite under the race detector
#   battery    the Stress|Chaos|Alloc tests again, -race -count=2
#   bench      every go-test benchmark for one iteration, so a broken rig
#              fails CI even when no one is measuring
#   E14        4 workers must not be slower than 1 (needs 4+ cores)
#   E15        delivering to 8 subscribers costs at most 2x delivering to 1
#   E16        a partitioned or killed leader loses or duplicates no
#              acknowledged write, and failover converges within budget
#   E17        64 TCP switches under flow-dir churn: every tracked install
#              reaches its switch, p99 within budget (skipped below 4
#              cores, where the burst is all scheduler queueing)
#   E18        the ring's bulk flow push is at least 5x file I/O and a
#              fanned-out packet-out stages one copy of the frame (skipped
#              below 4 cores, where wall-clock ratios are steal noise)
#   yancperf   two seconds each of churn_scan, install_ring and
#              install_file; each run's verifier (conservation, sink
#              table = file system, every scanned flow parses back) sets
#              the exit code, no number it prints is compared
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

echo "==> cross-build (darwin/arm64: the product has no OS-specific file)"
GOOS=darwin GOARCH=arm64 go build . ./cmd/... ./internal/... ./examples/...

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

echo "==> yancperf smoke (install_ring, 2 s: the verifier's exit code is the gate)"
go run ./bench -workload install_ring -seconds 2 -seed 3

echo "==> yancperf smoke (install_file, 2 s: the verifier's exit code is the gate)"
go run ./bench -workload install_file -seconds 2 -seed 3

echo "==> ok"
