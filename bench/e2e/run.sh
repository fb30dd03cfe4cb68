#!/usr/bin/env bash
# Builds and runs the repository benchmark (README.md in this directory).
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1 | --trace] [--smoke]
#   bench/e2e/run.sh --self-test
#
# Run it from the repository root. It configures and builds build-e2e/
# (hierarq_server and hierarq_bench, nothing else), then runs
# hierarq_bench with the given flags; "--flag=value" works as well as
# "--flag value".
# --self-test plants one wrong reference answer and passes only if the
# run then fails.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src/hierarq" || ! -f "$root/bench/e2e/CMakeLists.txt" ]]; then
  echo "run.sh: run from the root of a hierarq checkout (sources not found in $root)" >&2
  exit 2
fi

build="$root/build-e2e"
jobs=$(nproc 2>/dev/null || echo 2)
if (( jobs > 4 )); then jobs=4; fi
mkdir -p "$build"
{
  cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target hierarq_bench -j "$jobs"
} > "$build/build.log" 2>&1 || {
  echo "run.sh: build failed; see build-e2e/build.log" >&2
  tail -n 30 "$build/build.log" >&2
  exit 1
}

rev=unknown
if [[ -e "$root/.git" ]]; then
  rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

if [[ "${1:-}" == "--self-test" ]]; then
  # The planted run must finish, report "correct": false, and exit 1; a
  # crash or a passing run fails the self-test.
  status=0
  last=$("$build/hierarq_bench" --workload point_small --smoke --plant-mismatch \
      --work-dir "$build" --git-rev "$rev" 2> /dev/null | tail -n 1) || status=$?
  if [[ $status -ne 1 || "$last" != '{"correct": false,'* ]]; then
    echo "self-test FAILED: planted wrong answer gave exit $status, last line: $last" >&2
    exit 1
  fi
  echo "self-test ok: the planted wrong answer failed the run"
  exit 0
fi

exec "$build/hierarq_bench" --work-dir "$build" --git-rev "$rev" "$@"
