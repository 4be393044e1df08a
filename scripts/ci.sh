#!/usr/bin/env bash
# CI gate: static checks; unit/integration tests with the race detector
# (the allocation budgets are ordinary tests among them and hold under
# it), the golden packages once more under GOARCH=386, and once more in
# the poison build that faults on any use of a message after its release
# point; one untimed pass of the Build and Start benchmarks up to a
# 32x32 fabric; an end-to-end -quick smoke of every experiment through
# the parallel runner, whose CSV names and headers must match the
# committed results/ and whose CSVs, but for the host-timed table4.csv, a
# one-worker run must repeat byte for byte; the reachability gate over
# that smoke, the examples and bench -quick (testdata/unreached.txt); a
# 5 s smoke of every fuzz target, listed in one table of package paths
# and target names (cmd/ibsim's FuzzRun among them); and a -quick run of
# the benchmark for its correctness checks, then one full-length
# repetition against the recorded digests. Nothing here gates on host
# time: bench/ measures it, -compare judges it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
test -z "$(gofmt -l .)"

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== cross-builds (the !amd64 CRC-16 and NH fallbacks must keep compiling: arm64 runs hash/crc32 on its CRC32 instructions, 386 has none, and both run NH on the Go loop)"
GOARCH=arm64 go vet ./internal/icrc ./internal/umac
GOARCH=arm64 go build ./...
GOARCH=386 go build ./...

echo "== bench module vet + build (separate module; go build ./... does not descend into it)"
(cd bench && go vet ./... && go build -o /dev/null ./...)

echo "== go test -race -shuffle=on"
# This includes the race-instrumented end-to-end CLI replay (TestGolden)
# of every golden sweep, at -jobs 4 and -jobs 1.
go test -race -shuffle=on ./...

echo "== GOARCH=386 go test (the goldens and pins through the portable kernels: nhGo and the CRC fallbacks end to end, and 32-bit int)"
GOARCH=386 go test ./internal/core . ./cmd/ibsim

echo "== go test -race -count=10 ./internal/runner (the one package with goroutines and locks)"
go test -race -count=10 ./internal/runner

echo "== go test -tags poolpoison (use-after-release: a released message block is scribbled over and never reused)"
go test -tags poolpoison ./...

echo "== Table 4 throughput ordering (host-timed; only meaningful uninstrumented)"
go test -count=1 -run '^TestTable4Shape$' ./internal/core

echo "== BenchmarkBuild once (the set-up profiling entry point, up to 32x32, keeps compiling and running; no timing gate)"
go test -run '^$' -bench '^BenchmarkBuild$' -benchtime 1x -benchmem ./internal/core

echo "== BenchmarkStart once (Build plus a warm-up-length Simulate, up to 32x32, keeps compiling and running; no timing gate)"
go test -run '^$' -bench '^BenchmarkStart$' -benchtime 1x -benchmem ./internal/core

echo "== ibsim all -quick -jobs 2 (runner end-to-end smoke)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/ibsim -quick -jobs 2 -csv "$tmp/csv" all >"$tmp/all.out"

echo "== ibsim all -quick -jobs 1 (every CSV but the host-timed table4.csv byte-identical to the -jobs 2 run)"
go run ./cmd/ibsim -quick -jobs 1 -csv "$tmp/csv1" all >"$tmp/all1.out"
for f in "$tmp"/csv/*.csv; do
  name="$(basename "$f")"
  [ "$name" = table4.csv ] || cmp "$f" "$tmp/csv1/$name"
done

echo "== committed results/*.csv headers (each table name and header line the smoke writes matches the committed one)"
for f in results/*.csv; do
  got="$tmp/csv/$(basename "$f")"
  if [ ! -f "$got" ] || [ "$(head -n 1 "$f")" != "$(head -n 1 "$got")" ]; then
    echo "header of $f: smoke wrote '$(head -n 1 "$got" 2>/dev/null)', committed '$(head -n 1 "$f")'" >&2
    exit 1
  fi
done

echo "== reachability (every function under internal/ and cmd/ that no run executes is listed in testdata/unreached.txt; no listed one is reached)"
# The runs are ibsim all -quick, every example and bench -quick, built
# with coverage into one GOCOVERDIR. The list only shrinks: an unreached
# function that is not listed fails here, and so does a listed one that
# a run now reaches. TestUnreachedListed checks the list's shape.
reach="$tmp/reach"
mkdir -p "$reach/bin" "$reach/cov"
go build -cover -coverpkg=./... -o "$reach/bin/ibsim" ./cmd/ibsim
for d in examples/*/; do
  go build -cover -coverpkg=./... -o "$reach/bin/example-$(basename "$d")" "./$d"
done
go build -C bench -cover -coverpkg=ibasec/... -o "$reach/bin/bench" .
GOCOVERDIR="$reach/cov" "$reach/bin/ibsim" -quick -jobs 2 -csv "$reach/csv" all >"$reach/all.out"
for d in examples/*/; do
  GOCOVERDIR="$reach/cov" "$reach/bin/example-$(basename "$d")" >/dev/null
done
GOCOVERDIR="$reach/cov" "$reach/bin/bench" -quick -out "$reach/bench" >"$reach/bench.out"
go tool covdata func -i "$reach/cov" |
  awk '$NF == "0.0%" { sub(/^ibasec\//, "", $1); sub(/:[0-9]+:$/, "", $1); sub(/^\*/, "", $2); print $1, $2 }' |
  grep -E '^(internal|cmd)/' | LC_ALL=C sort >"$reach/unreached"
awk '!/^#/ && NF { print $1, $2 }' testdata/unreached.txt | LC_ALL=C sort >"$reach/listed"
unlisted="$(LC_ALL=C comm -23 "$reach/unreached" "$reach/listed")"
stale="$(LC_ALL=C comm -13 "$reach/unreached" "$reach/listed")"
if [ -n "$unlisted" ] || [ -n "$stale" ]; then
  [ -z "$unlisted" ] || printf 'reached by no run and not in testdata/unreached.txt (reach it, delete it, or list it with a kind and a reason):\n%s\n' "$unlisted" >&2
  [ -z "$stale" ] || printf 'listed in testdata/unreached.txt but reached by a run (delete its line):\n%s\n' "$stale" >&2
  exit 1
fi
echo "$(wc -l <"$reach/unreached") unreached functions, all listed"

echo "== fuzz smoke (every fuzz target, 5s each)"
while read -r pkg target; do
  go test -run '^$' -fuzz "^${target}\$" -fuzztime 5s "./${pkg}" </dev/null
done <<'EOF'
internal/packet    FuzzPacketUnmarshal
internal/icrc      FuzzCRC16
internal/icrc      FuzzSeal
internal/icrc      FuzzPatchPayload
internal/icrc      FuzzSealOnRead
internal/sm        FuzzMADParse
internal/sm        FuzzSMPTransit
internal/sm        FuzzMADDispatch
internal/sm        FuzzResweep
internal/transport FuzzGSI
internal/policy    FuzzUnmarshal
internal/keys      FuzzPartitionTable
internal/sim       FuzzEventQueue
internal/sim       FuzzNewRand
internal/fabric    FuzzLinkSchedule
internal/fabric    FuzzStrike
internal/umac      FuzzNH
internal/workload  FuzzSources
internal/topology  FuzzRoutesAvoiding
cmd/ibsim          FuzzRun
EOF

echo "== bench -quick (every workload's mechanism engaged; rep-to-rep and traced-vs-untraced digests)"
go run -C bench . -quick -out "$tmp/bench" >"$tmp/bench.out"

echo "== bench digest pin (one full-length repetition per workload at seed 1 against bench/testdata/digests.json)"
# -quick shortens the runs and so cannot compare against the recorded
# digests; this does, so a behaviour change on any workload fails here.
go run -C bench . -trace 0 -reps 1 -out "$tmp/bench-pin" >"$tmp/bench-pin.out"

echo "CI OK"
