#!/bin/sh
# bench.sh — run the shuffle acceptance benchmarks (the streaming
# ingest lanes, the one-partition absorb-and-seal lane, the reduce-merge
# decode and range-skew lanes, the key-plan micro lanes and the
# multi-process round; whole jobs end to
# end are the repository benchmark, bench/) and emit the perf
# trajectory artifacts:
#
#   BENCH_shuffle.txt   raw `go test -bench` output (benchstat input:
#                       collect one per commit and diff with
#                       `benchstat old.txt new.txt`)
#   BENCH_shuffle.json  the same runs parsed into JSON, one object per
#                       benchmark with every reported metric — ns/op,
#                       spilled-MB, values/s, peak-resident-pairs and
#                       friends are all picked up automatically — for
#                       dashboards and the scripts/benchcmp regression
#                       gate (which watches spilled-MB, ns/op,
#                       values/s and peak-resident-pairs, holds
#                       proc-peak-resident-pairs under proc-peak-bound,
#                       range-makespan-pairs under lpt-makespan-pairs,
#                       and enforces any -floor minimums and -ceil
#                       maximums, e.g. allocs/op == 0 on the
#                       BenchmarkKeyPlan hash, norm and merge-advance
#                       lanes, allocs/seal <= 8 on BenchmarkSeal)
#
# Usage: scripts/bench.sh [benchtime] [count]   (default 3x, 3)
#
# count > 1 reruns every benchmark and the JSON records the per-metric
# MEAN across the samples (plus a "samples" field), so the artifact's
# numbers are never the single-sample point estimates that made early
# BENCH files (iterations: 1) indistinguishable from scheduler noise.
# The raw .txt keeps every sample for benchstat.
set -eu

cd "$(dirname "$0")/.."
BENCHTIME="${1:-3x}"
COUNT="${2:-3}"
TXT=BENCH_shuffle.txt
JSON=BENCH_shuffle.json

# Write then cat (not a pipe to tee): POSIX sh has no pipefail, and a
# failed benchmark must fail the script.
go test -run '^$' -bench 'BenchmarkExternalShuffle|BenchmarkSeal|BenchmarkReduceMergeDecode|BenchmarkReduceRangeSkew' \
	-benchtime "$BENCHTIME" -count "$COUNT" ./internal/shuffle > "$TXT" || {
	status=$?
	cat "$TXT"
	exit "$status"
}

# The key-plan micro lanes (stable hash, normalized form, SortKeys,
# merge-cursor advance per key kind) time single per-key operations, so an iteration-count
# benchtime would measure nothing: they run time-based. benchcmp holds
# their allocs/op at zero (-ceil).
go test -run '^$' -bench 'BenchmarkKeyPlan' \
	-benchtime 200ms -count "$COUNT" ./internal/shuffle >> "$TXT" || {
	status=$?
	cat "$TXT"
	exit "$status"
}

# The multi-process round under a small MemoryBudget: emits
# proc-peak-resident-pairs next to proc-peak-bound so benchcmp can hold
# worker residency under the budget's ceiling on every run. Sampled
# -count times like the shuffle benches: each iteration forks a worker
# fleet, so its single-sample wall clock swings harder than any other
# benchmark here.
go test -run '^$' -bench 'BenchmarkProcRound' \
	-benchtime 1x -count "$COUNT" ./internal/proc >> "$TXT" || {
	status=$?
	cat "$TXT"
	exit "$status"
}
cat "$TXT"

# -count reruns print the same benchmark name once per sample; the JSON
# aggregates duplicates to their mean (benchcmp's loader keeps one
# object per name, so emitting raw duplicates would silently keep only
# the last sample).
awk -v gover="$(go version)" '
/^Benchmark/ {
	name = $1
	if (!(name in seen)) {
		seen[name] = 1
		order[no++] = name
	}
	samples[name]++
	sum[name, "iterations"] += $2
	if (!((name, "iterations") in has)) {
		has[name, "iterations"] = 1
		units[name] = "iterations"
	}
	for (i = 3; i + 1 <= NF; i += 2) {
		unit = $(i + 1)
		gsub(/"/, "", unit)
		sum[name, unit] += $i
		if (!((name, unit) in has)) {
			has[name, unit] = 1
			units[name] = units[name] SUBSEP unit
		}
	}
}
END {
	printf "{\n  \"generated_by\": \"scripts/bench.sh\",\n"
	printf "  \"go\": \"%s\",\n  \"benchmarks\": [", gover
	for (j = 0; j < no; j++) {
		name = order[j]
		if (j) printf ","
		printf "\n    {\"name\": \"%s\", \"samples\": %d", name, samples[name]
		n = split(units[name], us, SUBSEP)
		for (u = 1; u <= n; u++) {
			unit = us[u]
			printf ", \"%s\": %g", unit, sum[name, unit] / samples[name]
		}
		printf "}"
	}
	printf "\n  ]\n}\n"
}
' "$TXT" > "$JSON"

echo "wrote $TXT and $JSON"
