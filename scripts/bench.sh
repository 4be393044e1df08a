#!/usr/bin/env bash
# Simulator-core benchmark harness: runs the hot-path benchmark set with
# -benchmem and feeds the results to scripts/benchgate, which checks
# them against (or records them into) the BENCH_simcore.json envelope.
#
#   scripts/bench.sh             check against the recorded envelope
#   scripts/bench.sh -update     refresh the "current" section
#
# BENCHTIME sets the micro-benchmark iteration budget and
# HOTPATH_BENCHTIME the whole-simulation one (each op there is a full
# 2x2-mesh run). The defaults are what CI uses; the envelope in
# BENCH_simcore.json is recorded at the same budgets so the comparison
# is apples-to-apples — short fixed counts inflate ns/op with warmup
# effects, but they do so consistently, and allocs/op (the strict gate)
# is deterministic at any count. Raise BENCHTIME (e.g. 1s) for stable
# wall-clock numbers when measuring by hand.
#
# For a profile of the same hot path, use the CLI instead:
#   go run ./cmd/ibsim -cpuprofile cpu.pprof -memprofile mem.pprof -jobs 1 fig5
set -euo pipefail
cd "$(dirname "$0")/.."

mode=-check
[ "${1:-}" = "-update" ] && mode=-update

bench() { go test -run '^$' -benchmem "$@"; }

{
  bench -bench '^(BenchmarkScheduleRun|BenchmarkScheduleRunSteady)$' \
        -benchtime "${BENCHTIME:-100x}" ./internal/sim
  # One op is a sub-microsecond packet trip: 100 of them would be 75 us
  # of measurement, all noise; this count is 0.15 s.
  bench -bench '^BenchmarkFabricHop$' \
        -benchtime "${BENCHTIME:-200000x}" ./internal/fabric
  # One op is about a microsecond here too: at 100x a reading was 0.13 ms
  # and ICRCSeal ranged 1 267-2 629 ns, tripping the time gate on its own.
  bench -bench '^(BenchmarkICRCSeal|BenchmarkVerifyICRC|BenchmarkVerifyVCRC)$' \
        -benchtime "${BENCHTIME:-20000x}" ./internal/icrc
  # The tag and the signed send path, gated on allocs/op (0 and 2). One
  # op is 0.5-3 us, so like FabricHop they need a large fixed count.
  bench -bench '^BenchmarkUMAC32_1024B$' \
        -benchtime "${BENCHTIME:-200000x}" ./internal/mac
  bench -bench '^BenchmarkSendUDAuth$' \
        -benchtime "${BENCHTIME:-50000x}" ./internal/transport
  bench -bench '^BenchmarkCompile$' \
        -benchtime "${BENCHTIME:-100x}" ./internal/policy
  bench -bench '^(BenchmarkHotPath|BenchmarkHotPathAuth|BenchmarkCongestionHotPath|BenchmarkHealthSweep)$' \
        -benchtime "${HOTPATH_BENCHTIME:-20x}" .
} | tee /dev/stderr | go run ./scripts/benchgate "$mode"
