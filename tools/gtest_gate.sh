#!/usr/bin/env sh
# Run a gtest binary under an explicit --gtest_filter, and fail when any
# ':'-separated pattern of the filter selects no test.  gtest passes an
# empty selection silently, so without this check a renamed test would drop
# out of a CI gate unnoticed.
#
#   tools/gtest_gate.sh <test-binary> <filter> [extra gtest args...]
set -eu

if [ $# -lt 2 ]; then
  echo "usage: gtest_gate.sh <test-binary> <filter> [gtest args...]" >&2
  exit 2
fi
bin=$1
filter=$2
shift 2

# --gtest_list_tests prints "Suite." headers and one indented line per test.
for pattern in $(echo "$filter" | tr ':' ' '); do
  count=$("$bin" --gtest_filter="$pattern" --gtest_list_tests | grep -c '^  ' || true)
  if [ "$count" -eq 0 ]; then
    echo "gtest_gate.sh: pattern '$pattern' selects no test in $bin" >&2
    exit 1
  fi
  echo "gtest_gate.sh: '$pattern' selects $count test(s)"
done

exec "$bin" --gtest_filter="$filter" "$@"
