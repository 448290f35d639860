#!/usr/bin/env bash
# Run a gtest binary under a --gtest_filter, failing first if any positive
# pattern of the filter selects no test. A renamed suite would otherwise turn
# a filtered CI step into a silent no-op.
#
#   tools/run_gtest_filter.sh BINARY FILTER [EXTRA GTEST ARGS...]
set -euo pipefail

bin=$1
filter=$2
shift 2

positive=${filter%%-*}  # patterns after a '-' exclude tests
IFS=: read -ra patterns <<< "$positive"
for pattern in "${patterns[@]}"; do
  [ -n "$pattern" ] || continue
  count=$("$bin" --gtest_list_tests --gtest_filter="$pattern" | grep -c '^  ' || true)
  if [ "$count" -eq 0 ]; then
    echo "gtest filter pattern '$pattern' selects no tests" >&2
    exit 1
  fi
  echo "$pattern: $count tests"
done
exec "$bin" --gtest_filter="$filter" "$@"
