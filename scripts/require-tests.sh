#!/bin/sh
# Fail unless every alternative of a `go test -run` pattern names at
# least one test, example or fuzz target in the given packages, so a
# CI step that selects tests by name cannot pass silently after a
# rename. Run from the repo root with the step's pattern and packages:
#
#   sh scripts/require-tests.sh 'Journal|Recover' ./internal/server ./cmd/pedd
#
# Alternatives are split on top-level `|` only; keep patterns free of
# grouped alternations.
set -eu
[ $# -ge 2 ] || { echo "usage: $0 <run-pattern> <package>..." >&2; exit 2; }
pattern=$1
shift

names=$(go test -list . "$@" | grep -E '^(Test|Example|Fuzz)') || names=
pkgs=$*
status=0
IFS='|'
for alt in $pattern; do
	if ! printf '%s\n' "$names" | grep -Eq -- "$alt"; then
		echo "require-tests: '$alt' matches no test in $pkgs" >&2
		status=1
	fi
done
exit $status
