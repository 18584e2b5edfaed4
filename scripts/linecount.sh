#!/bin/sh
# linecount.sh — the runtime's line ratchet. Prints the non-test
# `wc -l` of each runtime package and fails when a group exceeds the
# ceiling the last simplifying PR committed: internal/shuffle +
# internal/proc + internal/runfile (the data plane), and internal/engine
# + internal/mr (the layers that relay configuration down to it, so the
# relay cannot grow back unnoticed). The ROADMAP asks the next PRs to be
# net-negative there, so a PR that must grow these packages lowers
# something else or raises the ceiling in the open, with its reason.
set -eu

cd "$(dirname "$0")/.."
CEILING=8051
RELAY_CEILING=2124

count() {
	find "internal/$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

plane=0
relay=0
for pkg in shuffle proc runfile engine mr; do
	n=$(count "$pkg")
	printf '%-8s %6d\n' "$pkg" "$n"
	case "$pkg" in
	shuffle | proc | runfile) plane=$((plane + n)) ;;
	engine | mr) relay=$((relay + n)) ;;
	esac
done
printf 'shuffle+proc+runfile %d (ceiling %d)\n' "$plane" "$CEILING"
printf 'engine+mr %d (ceiling %d)\n' "$relay" "$RELAY_CEILING"
status=0
if [ "$plane" -gt "$CEILING" ]; then
	echo "line ratchet: internal/shuffle+proc+runfile grew past $CEILING non-test lines" >&2
	status=1
fi
if [ "$relay" -gt "$RELAY_CEILING" ]; then
	echo "line ratchet: internal/engine+mr grew past $RELAY_CEILING non-test lines" >&2
	status=1
fi
exit "$status"
