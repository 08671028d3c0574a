#!/usr/bin/env sh
# Build and run the concurrency-correctness test tier under ThreadSanitizer
# and AddressSanitizer (the `sanitize` ctest label: the DAG runtime,
# fuzzed schedules, race harness, threaded factorization).
#
#   tools/run_sanitizers.sh [thread|address|undefined|address+undefined ...]
#
# With no arguments runs thread and address+undefined (matching CI).  Each
# sanitizer gets its own build tree (build-tsan, build-asan, build-ubsan)
# next to the source root.
# Exit status is non-zero if any configure, build, or test step fails.
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
sanitizers=${*:-"thread address+undefined"}
jobs=$(nproc 2>/dev/null || echo 2)
status=0

for san in $sanitizers; do
  case "$san" in
    thread)            build="$root/build-tsan" ;;
    address)           build="$root/build-asan" ;;
    undefined)         build="$root/build-ubsan" ;;
    address+undefined) build="$root/build-asan" ;;
    *) echo "run_sanitizers.sh: unknown sanitizer '$san'" >&2; exit 2 ;;
  esac

  echo "==> [$san] configure: $build"
  cmake -B "$build" -S "$root" -G Ninja -DPLU_SANITIZE="$san" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null

  echo "==> [$san] build"
  cmake --build "$build" -j "$jobs"

  # Fixed fuzz seeds via GTest's --gtest_random_seed do not apply here; the
  # harness tests iterate their own deterministic seed ranges, so a plain
  # labeled ctest run is reproducible.
  echo "==> [$san] ctest -L sanitize"
  if ! ctest --test-dir "$build" -L sanitize --output-on-failure -j "$jobs"; then
    echo "==> [$san] FAILED" >&2
    status=1
  else
    echo "==> [$san] OK"
  fi
done

exit $status
