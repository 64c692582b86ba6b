#!/usr/bin/env bash
# Perf regression guard (CI): runs the threshold tests by name, one package
# at a time, then asserts that every named test printed "--- PASS". A test
# that was renamed, deleted or skipped leaves -run matching nothing, which
# `go test` reports as success; the check turns that into a failure.
set -euo pipefail

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
failed=0

# guard PKG TEST...: run the tests in PKG and require a PASS line for each.
guard() {
  local pkg="$1"
  shift
  local pattern
  pattern="$(IFS='|'; echo "$*")"
  go test -count=1 -run "^(${pattern})\$" -v "$pkg" | tee "$out" || failed=1
  for name in "$@"; do
    if ! grep -q -- "--- PASS: ${name} " "$out"; then
      echo "perf guard did not pass (or did not run): ${pkg} ${name}" >&2
      failed=1
    fi
  done
}

guard ./internal/engine/ TestParallelReadThroughputScales TestPointLookupFastPathThreshold TestPreparedFasterThanParsePerCall TestScanAllocBudget TestScanPredicateInPlace TestRowStorageObjectBudget
guard ./internal/core/ TestCachedReadsThreshold TestGroupCommitAmortization
guard ./internal/wire/ TestWirePreparedExecThreshold TestWirePipelinedThroughputThreshold
guard . TestHistoryRecordingOverheadBudget TestOverloadNoCollapse TestMigrationWriteStallBudget
exit "$failed"
