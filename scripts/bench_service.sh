#!/usr/bin/env bash
# Runs the serving-path benchmarks — the single-process grading service
# (BenchmarkServiceThroughput), the fault-sharded cluster path
# (BenchmarkClusterGrade) and the same cluster with one straggling
# backend (BenchmarkClusterGradeStraggler, which exercises speculative
# shard duplicates) — and writes the raw `go test -json` event
# stream to BENCH_service.json, the artifact CI uploads per commit so
# the serving-path perf trajectory is recorded over time. The gap
# between the two cluster numbers tracks the tail-latency machinery.
#
# Usage: scripts/bench_service.sh [output-file]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_service.json}"
go test -run '^$' -bench 'BenchmarkServiceThroughput$|BenchmarkClusterGrade$|BenchmarkClusterGradeStraggler$' \
  -benchtime "${ADIFO_BENCHTIME:-5x}" -count 1 -json . > "$out"

# Fail loudly if the run did not actually benchmark anything.
grep -q 'BenchmarkServiceThroughput' "$out"
grep -q 'BenchmarkClusterGrade' "$out"
grep -q 'BenchmarkClusterGradeStraggler' "$out"
echo "wrote $out:"
grep -o '"Output":"Benchmark[^"]*ns/op[^"]*"' "$out" | sed 's/"Output":"//; s/\\n"$//' || true

# Simulator-core benchmarks: the wide-block parallel fault-grading
# kernels (BenchmarkRunParallel, the ISCAS-scale throughput number the
# compiled-core work is judged by) and the one-time netlist lowering
# cost (BenchmarkCompile, the price of a registry compiled-cache miss).
# Recorded separately as BENCH_sim.json so kernel regressions are
# visible without the serving-path noise on top.
sim_out="$(dirname "$out")/BENCH_sim.json"
go test -run '^$' -bench 'BenchmarkRunParallel$|BenchmarkCompile$' \
  -benchtime "${ADIFO_BENCHTIME:-5x}" -count 1 -json \
  ./internal/fsim ./internal/circuit > "$sim_out"
grep -q 'BenchmarkRunParallel' "$sim_out"
grep -q 'BenchmarkCompile' "$sim_out"
echo "wrote $sim_out:"
grep -o '"Output":"Benchmark[^"]*ns/op[^"]*"' "$sim_out" | sed 's/"Output":"//; s/\\n"$//' || true

# Archive a /metrics snapshot from a real adifod next to the benchmark
# stream, so each commit's artifact also records the metric catalog
# (and sanity-checks the exposition on the same runner).
scripts/smoke_metrics.sh "$(dirname "$out")/BENCH_metrics.txt"
