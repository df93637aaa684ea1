#!/usr/bin/env bash
# make mutants: every mutation check a change recorded, kept as a gate.
# Each patch under internal/reach/testdata/mutants/ breaks the program
# on purpose; its header, above the diff, says what it breaks and names
# the tests that must catch it, one line each:
#
#	must-fail PACKAGE RUN-REGEXP
#
# For every patch the checkout is copied to a temporary directory, the
# patch applied there with git apply, and each named test run with
# go test -count=1 -run RUN-REGEXP PACKAGE, without -race (the
# committed-evaluation golden skips under it). The gate fails if a
# patch no longer applies, names no test, or if a named test does not
# report a FAIL (a mutant that stops the build counts as surviving).
# Run from anywhere; the checkout itself is never written.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
for patch in "$root"/internal/reach/testdata/mutants/*.patch; do
	name=$(basename "$patch" .patch)
	work="$tmp/$name"
	mkdir "$work"
	tar -C "$root" --exclude=.git --exclude=.bench_build --exclude=.reach_dynamic \
		--exclude=benchmark/out -cf - . | tar -C "$work" -xf -
	if ! (cd "$work" && git apply "$patch"); then
		echo "mutants: $name: the patch no longer applies; re-point it at the code it mutates" >&2
		status=1
		continue
	fi
	checks=$(sed -n '/^diff --git/q; s/^must-fail //p' "$patch")
	if [ -z "$checks" ]; then
		echo "mutants: $name: the header names no must-fail test" >&2
		status=1
		continue
	fi
	while read -r pkg pattern; do
		if out=$(cd "$work" && go test -count=1 -run "$pattern" "$pkg" 2>&1); then
			echo "mutants: $name: SURVIVED $pkg -run '$pattern' (the test passed)" >&2
			status=1
		elif ! grep -q -- '--- FAIL:' <<<"$out"; then
			echo "mutants: $name: SURVIVED $pkg -run '$pattern' (no test failed):" >&2
			tail -n 20 <<<"$out" >&2
			status=1
		else
			echo "mutants: $name: killed by $pkg -run '$pattern'"
		fi
	done <<<"$checks"
	rm -rf "$work"
done
exit $status
