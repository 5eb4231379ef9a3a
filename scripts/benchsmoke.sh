#!/usr/bin/env bash
# Benchmark smoke for CI: run the steady-state engine benchmarks and the
# drain-locality benchmarks for a few short iterations with -benchmem and
# fail if a warm run allocates more than its row of the gate table.
#
# Each row names a benchmark prefix, its allocs/op ceiling and the
# minimum number of result lines it must produce:
#
# - BenchmarkEngineSteadyState, BenchmarkShardedSteadyState and the
#   s-t rows of BenchmarkGoalSteadyState get a small headroom (8):
#   racy duplicate counts vary run to run, so pooled-queue (and, when
#   sharded, exchange-queue) high-water marks settle stochastically and
#   a sample can still land on a late growth event.
# - BenchmarkDrainLocality, BenchmarkHybridSteadyState and the
#   depth-bounded rows of BenchmarkGoalSteadyState are gated at 0. These
#   rows are NOT free of stochastic growth: a worker's output queue (and,
#   rarely, the scale-free hot list) still grows whenever racy load
#   balance hands it a larger share of a level than its buffer has held,
#   so multi-worker rows can allocate after warm-up on a small host.
#   The zero gate stays until that growth is bounded (see ROADMAP.md);
#   raising it is a last resort.
#
# Usage: scripts/benchsmoke.sh [output-file]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-bench-smoke.txt}"

# prefix-regex                           max-allocs  min-results
gates=(
  '^BenchmarkEngineSteadyState'           8           4
  '^BenchmarkDrainLocality'               0           6
  '^BenchmarkShardedSteadyState'          8           6
  '^BenchmarkHybridSteadyState'           0           2
  '^BenchmarkGoalSteadyState/.*depth'     0           2
  '^BenchmarkGoalSteadyState/.*/st'       8           2
)

go test -run '^$' -bench 'BenchmarkEngineSteadyState|BenchmarkEngineRunMany|BenchmarkDrainLocality|BenchmarkShardedSteadyState|BenchmarkHybridSteadyState|BenchmarkGoalSteadyState' \
  -benchtime 3x -benchmem . | tee "$out"

fail=0

# gate <prefix-regex> <max> <min-results>
gate() {
  local prefix="$1" max="$2" min="$3" found=0
  while read -r name allocs; do
    found=$((found + 1))
    if [ "$allocs" -gt "$max" ]; then
      echo "FAIL: $name allocates $allocs allocs/op (max $max)" >&2
      fail=1
    else
      echo "ok: $name $allocs allocs/op (max $max)"
    fi
  done < <(awk -v pre="$prefix" '$1 ~ pre {
    for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $1, $(i-1)
  }' "$out")
  if [ "$found" -lt "$min" ]; then
    echo "FAIL: expected >=$min results for $prefix, found $found" >&2
    fail=1
  fi
}

for ((i = 0; i < ${#gates[@]}; i += 3)); do
  gate "${gates[i]}" "${gates[i + 1]}" "${gates[i + 2]}"
done

exit "$fail"
