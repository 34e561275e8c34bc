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
#   battery    the Stress|Chaos|Alloc tests again, -race -count=2 (the
#              E14, E15 and E16 properties and the views' overflow
#              convergence are among them)
#   fuzz       10 s each of FuzzPathResolve and FuzzFlowDirRoundTrip,
#              from the seed corpora committed under testdata/fuzz; what
#              the fuzzer finds interesting stays in the Go build cache
#   bench      every go-test benchmark for one iteration: the smoke test
#              of the experiment harness, so a broken series fails CI
#              even when no one is measuring
#   yancperf   two seconds each of churn_scan, install_ring,
#              install_file and reactive_miss, then install_ring traced;
#              each run's verifier (conservation, sink table = file
#              system, every scanned flow parses back, two FlowAdds and
#              one PacketOut per miss with no flood) sets the exit code,
#              no number it prints is compared
#   clean      no leg wrote into the checkout: `git status` reads as it
#              did when ci.sh started (empty on a committed tree)
set -eu
cd "$(dirname "$0")"
tree_before=$(git status --porcelain 2>/dev/null || true)

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

echo "==> go test -fuzz (10 s per target)"
go test -run '^$' -fuzz '^FuzzPathResolve$' -fuzztime 10s ./internal/vfs
go test -run '^$' -fuzz '^FuzzFlowDirRoundTrip$' -fuzztime 10s ./internal/yancfs

echo "==> go test -bench (smoke, 1 iteration)"
go test -bench=. -benchtime=1x -run='^$' ./...

echo "==> yancperf smoke (churn_scan, 2 s: the verifier's exit code is the gate)"
go run ./bench -workload churn_scan -seconds 2 -seed 3

echo "==> yancperf smoke (install_ring, 2 s: the verifier's exit code is the gate)"
go run ./bench -workload install_ring -seconds 2 -seed 3

echo "==> yancperf smoke (install_file, 2 s: the verifier's exit code is the gate)"
go run ./bench -workload install_file -seconds 2 -seed 3

echo "==> yancperf smoke (reactive_miss, 2 s: the verifier's exit code is the gate)"
go run ./bench -workload reactive_miss -seconds 2 -seed 3

echo "==> yancperf smoke (install_ring traced, 2 s: the stage table must build)"
go run ./bench -workload install_ring -seconds 2 -seed 3 -trace 1

echo "==> clean tree (no leg wrote into the checkout)"
if [ "$(git status --porcelain 2>/dev/null || true)" != "$tree_before" ]; then
    echo "FAIL: a leg changed the checkout; git status now reads:" >&2
    git status --porcelain >&2
    exit 1
fi

echo "==> ok"
