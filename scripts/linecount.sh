#!/bin/sh
# linecount.sh — the data plane's line ratchet. Prints the non-test
# `wc -l` of each runtime package and fails when internal/shuffle +
# internal/proc + internal/runfile exceed the ceiling the last
# simplifying PR committed: the ROADMAP asks the next PRs to be
# net-negative there, so a PR that must grow these packages lowers
# something else or raises the ceiling in the open, with its reason.
set -eu

cd "$(dirname "$0")/.."
CEILING=8295

count() {
	find "internal/$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

plane=0
for pkg in shuffle proc runfile engine mr; do
	n=$(count "$pkg")
	printf '%-8s %6d\n' "$pkg" "$n"
	case "$pkg" in shuffle | proc | runfile) plane=$((plane + n)) ;; esac
done
printf 'shuffle+proc+runfile %d (ceiling %d)\n' "$plane" "$CEILING"
if [ "$plane" -gt "$CEILING" ]; then
	echo "line ratchet: internal/shuffle+proc+runfile grew past $CEILING non-test lines" >&2
	exit 1
fi
