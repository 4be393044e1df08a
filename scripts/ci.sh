#!/usr/bin/env bash
# CI gate: static checks; unit/integration tests with the race detector
# (the allocation budgets are ordinary tests among them and hold under
# it), and once more in the poison build that faults on any use of a
# message after its release point; one untimed pass of the Build
# and Start benchmarks up to a 32x32 fabric; an end-to-end -quick smoke of every
# experiment through the parallel runner, whose CSV names and headers
# must match the committed results/; a 5 s smoke of every fuzz
# target, listed in one package/target table; and a -quick
# run of the benchmark for its correctness checks, then one full-length
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

echo "== cross-builds (the !amd64 CRC-16 fallback must keep compiling: arm64 runs hash/crc32 on its CRC32 instructions, 386 has neither)"
GOARCH=arm64 go vet ./internal/icrc
GOARCH=arm64 go build ./...
GOARCH=386 go build ./...

echo "== bench module vet + build (separate module; go build ./... does not descend into it)"
(cd bench && go vet ./... && go build -o /dev/null ./...)

echo "== go test -race -shuffle=on"
# This includes the race-instrumented end-to-end CLI replay (TestGolden)
# of every golden sweep, at -jobs 4 and -jobs 1.
go test -race -shuffle=on ./...

echo "== go test -race -count=10 ./internal/runner (the one package with goroutines and locks)"
go test -race -count=10 ./internal/runner

echo "== go test -tags poolpoison (use-after-release: a released message block is scribbled over and never reused)"
go test -tags poolpoison ./...

echo "== Table 4 throughput ordering (host-timed; only meaningful uninstrumented)"
go test -count=1 -run '^TestTable4Shape$' ./internal/core

echo "== BenchmarkBuild once (the set-up profiling entry point, up to 32x32, keeps compiling and running; no timing gate)"
go test -run '^$' -bench '^BenchmarkBuild$' -benchtime 1x ./internal/core

echo "== BenchmarkStart once (Build plus a warm-up-length Simulate, up to 32x32, keeps compiling and running; no timing gate)"
go test -run '^$' -bench '^BenchmarkStart$' -benchtime 1x ./internal/core

echo "== ibsim all -quick -jobs 2 (runner end-to-end smoke)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/ibsim -quick -jobs 2 -csv "$tmp/csv" all >"$tmp/all.out"

echo "== committed results/*.csv headers (each table name and header line the smoke writes matches the committed one)"
for f in results/*.csv; do
  got="$tmp/csv/$(basename "$f")"
  if [ ! -f "$got" ] || [ "$(head -n 1 "$f")" != "$(head -n 1 "$got")" ]; then
    echo "header of $f: smoke wrote '$(head -n 1 "$got" 2>/dev/null)', committed '$(head -n 1 "$f")'" >&2
    exit 1
  fi
done

echo "== fuzz smoke (every fuzz target, 5s each)"
while read -r pkg target; do
  go test -run '^$' -fuzz "^${target}\$" -fuzztime 5s "./internal/${pkg}" </dev/null
done <<'EOF'
packet    FuzzPacketUnmarshal
icrc      FuzzCRC16
icrc      FuzzSeal
icrc      FuzzPatchPayload
sm        FuzzMADParse
sm        FuzzSMPTransit
sm        FuzzMADDispatch
sm        FuzzResweep
transport FuzzGSI
policy    FuzzUnmarshal
keys      FuzzPartitionTable
sim       FuzzEventQueue
fabric    FuzzLinkSchedule
umac      FuzzNH
workload  FuzzSources
EOF

echo "== bench -quick (every workload's mechanism engaged; rep-to-rep and traced-vs-untraced digests)"
go run -C bench . -quick -out "$tmp/bench" >"$tmp/bench.out"

echo "== bench digest pin (one full-length repetition per workload at seed 1 against bench/testdata/digests.json)"
# -quick shortens the runs and so cannot compare against the recorded
# digests; this does, so a behaviour change on any workload fails here.
go run -C bench . -trace 0 -reps 1 -out "$tmp/bench-pin" >"$tmp/bench-pin.out"

echo "CI OK"
