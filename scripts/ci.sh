#!/usr/bin/env bash
# CI gate: static checks, unit/integration tests with the race detector,
# and an end-to-end -quick smoke of the parallel experiment runner,
# including an interrupted-run resume.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== bench module vet + build (separate module; go build ./... does not descend into it)"
(cd bench && go vet ./... && go build -o /dev/null ./...)

echo "== go test -race -shuffle=on"
go test -race -shuffle=on ./...

echo "== ibsim all -quick -jobs 2 (runner end-to-end smoke)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/ibsim -quick -jobs 2 -results "$tmp" -csv "$tmp/csv" all >"$tmp/all.out"

echo "== ibsim all -quick -jobs 2 -resume (manifest resume smoke)"
go run ./cmd/ibsim -quick -jobs 2 -results "$tmp" -resume -csv "$tmp/csv2" all >"$tmp/all2.out"

# The resumed run's sweep CSVs must be byte-identical to the original
# run's. (table4 is excluded: it is a live wall-clock throughput
# measurement, not a simulation, so its numbers legitimately vary.)
for f in "$tmp"/csv/*.csv; do
  base="$(basename "$f")"
  [ "$base" = "table4.csv" ] && continue
  diff "$f" "$tmp/csv2/$base"
done

echo "== ibsim faults -quick (chaos smoke under the race detector)"
# Deterministic fault injection end to end: link kills + BER burst vs
# the self-healing re-sweep, on a race-instrumented binary, checked
# byte-for-byte against the committed golden CSV.
go run -race ./cmd/ibsim -quick -jobs 2 -results '' -csv "$tmp/chaos" faults -bers 0,1e-5 -kills 0,2 >"$tmp/chaos.out"
diff testdata/golden/faults_quick.csv "$tmp/chaos/faults.csv"

echo "== ibsim failover -quick (SM kill + rekey smoke under the race detector)"
# Master-SM kill, standby election, bounded re-sweep and key-epoch
# rotation on a race-instrumented binary, byte-for-byte against the
# committed golden CSV (the same sweep TestGoldenFailover pins serially).
go run -race ./cmd/ibsim -quick -jobs 2 -results '' -csv "$tmp/failover" failover -standbys 1,2 -heartbeats-us 50 -rekeys-us 0,300 >"$tmp/failover.out"
diff testdata/golden/failover_quick.csv "$tmp/failover/failover.csv"

echo "== ibsim apm -quick (RC recovery + path-migration smoke under the race detector)"
# NAK-driven go-back, exponential backoff and automatic path migration
# against a mid-run primary-path link kill, on a race-instrumented
# binary, byte-for-byte against the committed golden CSV (the same sweep
# TestGoldenAPM pins both serially and in parallel).
go run -race ./cmd/ibsim -quick -jobs 2 -results '' -csv "$tmp/apm" apm -bers 0,1e-5 -kills 0,1 >"$tmp/apm.out"
diff testdata/golden/apm_quick.csv "$tmp/apm/apm.csv"

echo "== ibsim drift -quick (policy-plane drift audit smoke under the race detector)"
# Out-of-band switch-state corruption vs the declarative drift auditor
# (detect-only and auto-repair arms) on a race-instrumented binary,
# byte-for-byte against the committed golden CSV (the same sweep
# TestGoldenDrift pins both serially and in parallel).
go run -race ./cmd/ibsim -quick -jobs 2 -results '' -csv "$tmp/drift" drift -periods-us 0,200,50 >"$tmp/drift.out"
diff testdata/golden/drift_quick.csv "$tmp/drift/drift.csv"

echo "== ibsim splitbrain -quick (subnet-bisection smoke under the race detector)"
# Mesh bisection, dual-master containment, deterministic merge and
# key-epoch reconciliation on a race-instrumented binary, byte-for-byte
# against the committed golden CSV (the same sweep TestGoldenSplitBrain
# pins both serially and in parallel).
go run -race ./cmd/ibsim -quick -jobs 2 -results '' -csv "$tmp/splitbrain" splitbrain -partitions-us 80,160,320 -heartbeats-us 10,20 -rekeys-us 0,60 >"$tmp/splitbrain.out"
diff testdata/golden/splitbrain_quick.csv "$tmp/splitbrain/splitbrain.csv"

echo "== ibsim congestion -quick (FECN/BECN congestion-control smoke under the race detector)"
# Line-rate incast flood vs the Congestion Control Annex: switch FECN
# marking, CNP reflection, source CCT throttling and post-attack decay
# on a race-instrumented binary, byte-for-byte against the committed
# golden CSV (the same sweep TestGoldenCongestion pins both serially and
# in parallel).
go run -race ./cmd/ibsim -quick -jobs 2 -results '' -csv "$tmp/congestion" congestion -rates 0.5,1.0 >"$tmp/congestion.out"
diff testdata/golden/congestion_quick.csv "$tmp/congestion/congestion.csv"

echo "== ibsim health -quick (flaky-link quarantine smoke under the race detector)"
# Per-link BER ramp and adversarial oscillating BER vs the PerfMgr:
# PortCounters sweeps, EWMA scoring, proactive quarantine, damped
# re-admission and threshold traps on a race-instrumented binary,
# byte-for-byte against the committed golden CSV (the same sweep
# TestGoldenHealth pins both serially and in parallel).
go run -race ./cmd/ibsim -quick -jobs 2 -results '' -csv "$tmp/health" health -bers 1e-4 >"$tmp/health.out"
diff testdata/golden/health_quick.csv "$tmp/health/health.csv"

echo "== ibsim -list (experiment registry smoke)"
# Every sweep subcommand ci.sh exercises must be advertised by -list.
# (Listed to a file first: `... -list | grep -q` makes ibsim die of
# SIGPIPE when grep exits at the match, which pipefail reports.)
go run ./cmd/ibsim -list >"$tmp/list.out"
for exp in apm faults failover drift splitbrain congestion health; do
  grep -qx "$exp" "$tmp/list.out"
done

echo "== fuzz smoke (wire parsers, 5s each)"
go test -run '^$' -fuzz '^FuzzPacketUnmarshal$' -fuzztime 5s ./internal/packet
go test -run '^$' -fuzz '^FuzzCRC16$' -fuzztime 5s ./internal/icrc
go test -run '^$' -fuzz '^FuzzMADParse$' -fuzztime 5s ./internal/sm

echo "== benchmark regression gate (allocs strict, time loose)"
scripts/bench.sh

echo "CI OK"
