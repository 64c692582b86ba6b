#!/usr/bin/env bash
# Bench smoke (CI): one iteration of every benchmark keeps benchmark code
# compiling and running — it cannot rot unnoticed — without turning CI into
# a measurement farm. The required list then asserts that the named
# comparison benchmarks still EXIST: a rename or accidental deletion fails
# here rather than silently shrinking the sweep. One entry per PR-defining
# comparison (query cache PR 3, recovery paths PR 4, wire prepared PR 5,
# wire protocol + group commit PR 9, bound-expression scan path).
set -euo pipefail

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

go test -bench . -benchtime=1x -run '^$' ./... | tee "$out"

required=(
  'BenchmarkCachedReads/cached'
  'BenchmarkRecoveryResync/checkpoint-tail'
  'BenchmarkWirePreparedExec/prepared-exec'
  'BenchmarkWireProtocol/binary-pipelined'
  'BenchmarkGroupCommit/group-commit'
  'BenchmarkScanFilter/select'
)
missing=0
for b in "${required[@]}"; do
  if ! grep -q "$b" "$out"; then
    echo "required benchmark missing from sweep: $b" >&2
    missing=1
  fi
done
exit "$missing"
