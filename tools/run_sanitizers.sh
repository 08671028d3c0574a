#!/usr/bin/env sh
# Build the tree under a sanitizer and run every sanitizer gate on it: the
# `sanitize` ctest label (the DAG runtime, fuzzed schedules, race harness,
# threaded factorization and solves) plus the explicit gates below.  This
# script is the one list of those gates; CI's TSan and ASan+UBSan jobs run
# it and nothing else.
#
#   tools/run_sanitizers.sh [thread|address|undefined|address+undefined ...]
#
# With no arguments runs thread and address+undefined (the two CI jobs).
# Each sanitizer gets its own build tree (build-tsan, build-asan,
# build-ubsan) next to the source root.  The address and undefined trees
# run the `asan` gates with CI's UBSAN_OPTIONS / ASAN_OPTIONS; the thread
# tree runs the `tsan` gates.  Every gate runs even when an earlier one
# fails; the exit status is non-zero if any configure, build or gate step
# failed, and the failed steps are listed at the end.
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
sanitizers=${*:-"thread address+undefined"}
jobs=$(nproc 2>/dev/null || echo 2)
failed=""

# step TREES NAME COMMAND...: runs COMMAND when the current tree's kind
# (tsan or asan) is one of TREES, recording a failure under NAME.
step() {
  trees=$1
  name=$2
  shift 2
  case " $trees " in
    *" $kind "*) ;;
    *) return 0 ;;
  esac
  echo "==> [$san] $name"
  if (
    if [ "$kind" = asan ]; then
      export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
      export ASAN_OPTIONS=strict_string_checks=1
    fi
    "$@"
  ); then
    echo "==> [$san] OK: $name"
  else
    echo "==> [$san] FAILED: $name" >&2
    failed="$failed
  [$san] $name"
  fi
}

# gate BINARY FILTER: a gtest binary under an explicit filter, through
# tools/gtest_gate.sh, which fails when a pattern selects no test (so a
# rename can't silently empty a gate).
gate() {
  "$root/tools/gtest_gate.sh" "$build/tests/$1" "$2"
}

for san in $sanitizers; do
  case "$san" in
    thread)            build="$root/build-tsan";  kind=tsan ;;
    address)           build="$root/build-asan";  kind=asan ;;
    undefined)         build="$root/build-ubsan"; kind=asan ;;
    address+undefined) build="$root/build-asan";  kind=asan ;;
    *) echo "run_sanitizers.sh: unknown sanitizer '$san'" >&2; exit 2 ;;
  esac

  echo "==> [$san] configure: $build"
  if ! cmake -B "$build" -S "$root" -G Ninja -DPLU_SANITIZE="$san" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null ||
     ! { echo "==> [$san] build"; cmake --build "$build" -j "$jobs"; }; then
    echo "==> [$san] FAILED: configure or build" >&2
    failed="$failed
  [$san] configure or build"
    continue
  fi

  # The concurrency tier.  Fixed fuzz seeds via GTest's --gtest_random_seed
  # do not apply here; the harness tests iterate their own deterministic
  # seed ranges, so a plain labeled ctest run is reproducible.
  step "tsan asan" "ctest -L sanitize" \
    ctest --test-dir "$build" -L sanitize --output-on-failure -j "$jobs"

  # The explicit gates.  Those whose binaries are in the label run again
  # here so a label change can't silently drop them.
  #
  # Cancellation under work stealing is the raciest path in the runtime
  # (failure + token + dependence-release interleavings).
  step tsan "cancellation 20-seed gate" gate test_runtime \
    'DagExecutor.WorkStealingCancellationTwentySeedGate:DagExecutor.ThrowingTaskCancelsDownstreamAndRethrows:FuzzedExecutor.ThrowingTaskCancelsAndRethrows'
  # Client threads x requests over one SharedRuntime with random cancels
  # and tiny deadlines: admission, the analysis cache's pending dedup,
  # multi-DAG interleaving and the deadline watchdog all race.
  step tsan "solver-service stress gate" gate test_service_stress \
    'SolverServiceStress.*'
  # The task graph replayed on one thread and run threaded at 1/2/4/8
  # threads must give bit-identical factors to the sequential loop over the
  # sweep x both layouts and at 4 threads on the four production shapes;
  # fuzzed schedules too, and the race-checker audit of the row-run
  # footprints must stay clean (DESIGN.md section 16).
  step tsan "repartition bitwise gate" gate test_repartition 'Repartition.*'
  # Nested dissection is the default ordering of 3-D-mesh-like inputs
  # (Options::ordering = kAuto), so its engine and the policy's fill gate
  # run under both sanitizers.
  step "tsan asan" "ordering policy and nested dissection" gate test_ordering \
    'OrderingPolicy.*:NestedDissection.*'
  # Exact minimum degree's refresh (pruned edge lists, per-element
  # |e \ N| counts) must give the full-rescan oracle's permutation
  # (tests/md_reference.h); puts its index arithmetic under ASan+UBSan.
  step asan "minimum-degree equivalence gate" gate test_ordering \
    'MinimumDegreeEquivalence.*'
  # The writer-chain check over the sweep, Table-1 and production shapes,
  # lock-free 1-D threaded factors bitwise equal to sequential, and the two
  # race-checker negative controls (widened run, dropped Theorem-4 edge).
  # Not in the label.
  step "tsan asan" "row-run gate" gate test_row_runs 'RowRuns.*'
  # Split load, scan and tree solve on multi-tree shapes above
  # kParallelPassDoubles, kThreaded on a private and a shared pool bitwise
  # equal to kSequential, fresh and refactored, and concurrent const solves
  # on one SparseLU.  The bench smokes' forest is below the threshold and
  # no smoke solves, so they never reach the tree-split solve.
  step "tsan asan" "parallel passes gate" gate test_parallel_passes \
    'ParallelPasses.*'
  # Every solve entry point x both layouts x MC64 off/on against a dense
  # reference: one panel walk indexing raw views of the factors and the
  # right-hand sides.  Not in the label.
  step asan "solve entry points" "$build/tests/test_solve"
  # Bench smokes: the production shapes (forests, multiphysics, power-law,
  # banded) at up to 8 threads, which the unit-test sweep matrices are too
  # small to reach.  The scheduler bench drives the runtime at 8 threads
  # with fuzzed schedules; the kernels bench exits non-zero on a factor
  # mismatch between sequential and 4-thread runs.
  step "tsan asan" "scheduler bench" "$build/bench/bench_ablation_scheduler"
  step "tsan asan" "scaling bench smoke" \
    "$build/bench/bench_scaling_modern" --smoke
  step "tsan asan" "kernel routing bench smoke" \
    "$build/bench/bench_ablation_kernels" --smoke
  step "tsan asan" "ordering bench smoke" \
    "$build/bench/bench_ablation_ordering" --smoke
done

if [ -n "$failed" ]; then
  echo "==> FAILED steps:$failed" >&2
  exit 1
fi
echo "==> all sanitizer gates OK"
