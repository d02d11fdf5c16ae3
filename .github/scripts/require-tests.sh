#!/usr/bin/env bash
# Usage: require-tests.sh PATTERN PKG
#
# Fails unless every |-separated alternative of the go test -run PATTERN
# lists at least one test, fuzz target or benchmark in PKG. A CI step that
# runs `go test -run PATTERN PKG` calls this first, so a test that was
# moved to another package or renamed cannot turn the step into a silent
# pass that ran nothing.
set -euo pipefail
pattern=$1
pkg=$2
IFS='|' read -ra alts <<<"$pattern"
for alt in "${alts[@]}"; do
  listed=$(go test -list "$alt" "$pkg")
  if ! grep -Eq '^(Test|Fuzz|Benchmark|Example)' <<<"$listed"; then
    echo "require-tests: no test in $pkg matches '$alt' (from -run '$pattern')" >&2
    exit 1
  fi
done
