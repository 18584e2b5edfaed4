#!/bin/sh
# linecount.sh — the repository's line ratchet. Prints the non-test
# `wc -l` of each runtime package and fails when a group exceeds the
# ceiling the last simplifying PR committed: internal/shuffle +
# internal/proc + internal/runfile (the data plane), internal/engine +
# internal/mr (the layers that relay configuration down to it, so the
# relay cannot grow back unnoticed), and the paper side (internal/core,
# the family catalogue, the family packages and cmd/*). The ROADMAP asks
# the next PRs to be net-negative there, so a PR that must grow these
# packages lowers something else or raises the ceiling in the open, with
# its reason.
set -eu

cd "$(dirname "$0")/.."
# The data plane includes the codecs resolved once per encoder
# (runfile.ImageBytes/CodecFor). Lowered 8 027 -> 7 941 when every
# shuffle key got one compiled order (shuffle.CheckKey): the fmt.Sprint
# order, the tie-class regrouping merge, the range planner's class
# alignment and the codec-bytes stable hash went, the NaN-key check came.
# Raised 7 941 -> 8 096 for keys that compare as words: the normalized
# key form (runfile.KeyPlan.Norm), SortKeys' radix sort and its pooled
# scratch, the merge heap's cached-word compare, the merge-free
# Shuffle.Totals with GroupProfile/Stats.AddGroups, and the per-seal
# intern clear; net of the deleted SortKeys type switch,
# scalarCmp/typedCmp and KeyRange.Contains. Compare and Hash keep their
# own typed loads: routed through Norm's word they ran two kind
# switches per part (slower hash lanes), and Compare is the independent
# order the normalized form is tested against.
# Lowered 8 096 -> 8 081 when the live run became a flat arena sorted
# once at seal: absorbPresized with its pre-size map and latch, the
# freeVs freelist (grabSlice, recycleLive), the map form of combineLive
# and of memRun, sortedMapKeys, writeGroups and the swap read-back's
# swapChunk went; the arena's take loop, memRun's sort, gather, combine
# and chunk merge, and the permutation radix sort came.
# Lowered 8 081 -> 7 962 by the reachability sweep (scripts/deadcode):
# proc.Backoff's settable schedule became constants and Permanent went,
# the whole-run Timeout defaults to no deadline, and
# runfile.ValuesFromRaw, Reader.Offset and the hasMmap constant, which
# only tests used, went. Partition.ForEachGroup (12 lines) moved into
# the shuffle tests as forEachGroup: net of it, -107.
# Lowered 7 962 -> 7 952: proc.Options.WorkerCommand, which nothing set,
# went; the driver always re-executes os.Executable().
# Lowered 7 952 -> 7 828 when each type got one compiled plan behind
# its key order and its codec (runfile.Plan): the gob fallback of Append,
# Decode and DecodeBatch, CanRoundTripIdentity/CanRoundTripFidelity with
# their walks, fixedPlan with its cache and maxFixedOps, the shuffle's
# deferred spillTypeErr and proc.Run's four round-trip gates went; the
# plan's string op, shuffle.CheckTypes and runfile.CheckCodec came.
# Lowered 7 828 -> 7 746 when both executors took one round record and
# one metrics record: proc.JobSpec (with its BatchReduce flag) and
# proc.Metrics (with MapTasks and ReduceTasks) went, proc.Register takes
# an engine.Round, and jobImpl.partition's modulo went (the shuffle
# already reduces a placement modulo P).
# Raised 7 746 -> 7 807 when spilled groups stopped paying per group:
# the reduce merge's binary heap became a tree of losers with snapshot
# group refs (newLoserTree, replay, the inline-word leaves, groupRef
# with its section load), the run writer's bufio.Writer its own append
# buffer (flush, write-through of long slices), and ProcMode's reduce
# report carries the q distribution; net of the heap, the cursors'
# runIdx and current-group fields, the counting ReaderAt, the footers of
# in-process runs and the shuffle's IndexBytesSpilled. hamming_spill's wall_s median fell
# 0.248 -> 0.199 s (10 alternating pairs, 2 cores).
# Lowered 7 807 -> 7 790 when the proc worker took the engine's task
# bodies: its map loop, its q gate and range plan, and its per-range
# reduce loop (Round.Reducer, ForEachGroupRange, the group count) went,
# and so did proc.go's restatement of the worker's task docs; the
# worker's package comment now names the three places the executors
# differ on purpose.
# Lowered 7 790 -> 7 667 when runfile.CodecFor became the one place a
# wire form is chosen and a value section decodes in one walk: the
# typed switches of Append, Decode and DecodeBatch (which had to agree,
# the last one 155 lines) and castTo went, and so did the second framing
# loop of ValueBatch (split and viewSection) and its pread method; the
# generic scalar pairs, Codec.DecodeSection, CheckSection and the
# package-level ReadSectionAt came.
# Lowered 7 667 -> 7 491 when shuffle.Stats became the one record of the
# exchange profile and StableHasher the shuffle's one key hash: the
# Stats memo (statsMu, statsMemo, invalidateStats and its call sites),
# Stats.Skew, Stats.String and MaxPartitionPairs went, and the parallel
# per-partition slices became PartitionStat (moved from engine); the
# maphash Hasher with NewHasher, sharedSeed and the pinned flag, and the
# proc worker's explicit stable partitioner went; ReduceReport's Keys,
# MaxGroup, GroupSizeLog2 and PeakResident became one GroupProfile per
# range, which the driver folds with Stats.AddGroups in place of its
# own histogram loop. runfile.Reader.Next, Value and ValueAppend, which
# only tests call, moved into a test file.
# Raised 7 491 -> 7 717 when ProcMode's round tail stopped sleeping and
# re-merging: the driver's polls park on a broadcast (grantLocked,
# wakeLocked) and shutdown waits on it instead of a 10 ms sleep loop;
# the output merge decodes each accepted reduce output's sections
# straight into their slots of the result (mergeOutputs' slot pass,
# decodeOutput, the eachRun pool, runfile.View's map-or-read) instead
# of adopting them into a one-partition shuffle, with AdoptRun's checks
# shared as shuffle.LoadRun; and the codec copies the memory image of a plan
# whose wire form it is (wireImage, Codec.copySection). ReadIndex cuts
# its keys from one arena. Net of the worker's TaskWait sleep,
# Task.PollAfter and Partition.Pairs (only tests call it; moved into a
# test file). hamming_proc's peak_rss_mb median fell 161 -> 129 MB and
# its wall_s 0.42 -> 0.35 s (10 alternating pairs, 2 cores).
# Lowered 7 717 -> 6 820 when each map task attempt's writer began
# sealing its own sorted runs (the map side of Dean and Ghemawat's
# MapReduce), published in task order at commit: the staging area and
# its watermark (stagedRun, stage, finishTask, drainAll, ingestStep,
# minStagedBelow, the partition's stageMu, staged and stagedPairs), the
# pressure swap and its read-back (swapSec, swapStaged, absorbSwapped,
# nextFrame, decodeSwappedKey, spool.addSwap, the stash spool,
# Shuffle.swapImage, swapBuf, intern), the partition's live run (take,
# absorb, chunk, refill, seal, liveApprox, SealAllLive, mergeRuns), the
# block pool, tuning.blockPairs, the background compaction pool
# (compact.go: compaction runs once, in Finish, over all of a
# partition's runs, so compactionSuffix's tiers went too), and the proc
# worker's sub-task cut and scratch stash directory went; the task
# writer's buckets, seal and publish came. runfile.ImageSize, which only
# a test calls now, moved into a test file. Spool seals and compaction
# outputs write their keys empty (GroupEncoder's keyed flag: task runs
# are small groups, and keys nobody reads were most of their bytes),
# and compaction merges chunks of at most maxDiskRunFanIn files a pass
# at a time (compactionChunk, compactChunk): 69 of the lines.
# Raised 6 820 -> 6 899 when the ProcMode driver took over its leases
# from engine.LeaseTable (-197 lines of engine+mr): one lease record per
# map task and per partition under the driver's lock, the sweep body
# (sweepLocked) and a worker exit's effect (exitLocked) as methods a
# test drives without a process, and the checks that refuse a task,
# attempt or partition id the job never granted, off the socket and off
# a manifest (checkSections, leaseOf). The two groups fell 118 together.
CEILING=6899
# engine+mr includes the reduce output collector both executors share
# (internal/engine/collect.go, with the exact-size output assembly).
# Lowered 1 890 -> 1 889 with the key check: engine.SortKeys went.
# Raised 1 889 -> 1 918 when the reduce units started counting their
# groups (one merge per partition): setProfile, the q gate that runs
# Stats only under MaxReducerInput, the units' group profiles, and the
# counting merge a failed reduce phase falls back on so its per-key
# metrics stay the whole shuffle's.
# Lowered 1 918 -> 1 806 by the reachability sweep: the RecordLoads
# setting (engine.Config and mr.Config) with Result.Loads,
# Metrics.ReducerLoads, collectLoads and the loads arguments of
# assemble and attemptReduce; mr.Config.ProcWorkerCommand; mr.Chain,
# Pipeline.TotalCommunication and Pipeline.MaxReducerInput. mr.Pair
# (6 lines) moved into the mr tests: net of it, -106.
# Raised 1 806 -> 2 020 when a round's result became an output image
# that mr.RunPipeline hands to the next in-process round: engine.Image
# (the collectors' chunks plus a 4-byte unit index per key, built by a
# heap merge of the units' sorted key lists), its seek/read of a map
# task's record range in place, the parallel copy of a last round
# rewritten over those reads, and the pipeline's kept-image hand-off
# with its ProcMode rule; plus the folding map-side combine
# (mapCombiner: a slot per key in first-emitted order instead of one
# map[K][]V of every value). assemble's SortKeys, rank map and fill
# went. census_spill's peak_rss_mb fell ~175 -> ~100 MB with it (2 cores).
# Lowered 2 020 -> 1 897 when engine.Metrics became the one metrics
# record: mr.Metrics (an alias of it now) with its PartitionSkew
# wrapper, the field-by-field copies in runEngine and runProc, and
# RegisterProc's JobSpec literal went; ReplicationRate, String,
# LogicalString and PublishTo moved onto engine.Metrics, the four
# fault counters joined it, and Round.Reducer is the one choice of
# reduce function both executors make. mr's function types are aliases
# of engine's, and the overflow rewrap in runAny went
# (Plan.CheckReducerInput names the job).
# Raised 1 897 -> 1 903: a round's reduce phase closes its shuffle
# before it assembles the output slice (the resident run indexes no
# longer sit under that allocation: hamming_spill's peak_rss_mb was
# bimodal on it), and engine.Metrics documents the ProcMode q
# distribution and the in-process IndexBytesSpilled of 0.
# Raised 1 903 -> 1 908 when both executors took one task body each
# way (internal/engine/task.go: RunMapAttempt, PlanReduce,
# RunReduceAttempt, which the proc worker calls): PlanReduce is the q
# gate and range plan that Run and the worker each wrote out; net of
# attemptMapTask and attemptReduce, which went into the scheduler's
# retry closures, and of the two hand-written retry loops and
# maxRetries, which became Config.retry and Config.injects. The data
# plane fell 17 lines with it: the two groups together fell 12.
# Lowered 1 908 -> 1 824 when engine.Metrics embedded shuffle.Stats:
# setProfile (the field-by-field copy of the profile), PartitionStat,
# TotalReducerInput (always PairsShuffled) and the field docs Metrics
# restated went; the reduce units fold straight into the metrics.
# Raised 1 824 -> 1 837 when newImage's heap merge of the units' key
# lists became engine.KeyOrder, the one key merge the ProcMode driver's
# output decode shares (ties in list order).
# Lowered 1 837 -> 1 835 with the map side's task-local runs: the
# mr_swap_bytes_total counter left PublishTo.
# Lowered 1 835 -> 1 638 when engine.LeaseTable, engine.Expired and
# internal/engine/lease.go went: the ProcMode driver, its only user,
# keeps its leases under its own lock (see CEILING).
RELAY_CEILING=1638
# The paper side: one family catalogue (internal/catalog) that mrplan,
# mrtrace and mrbounds iterate, and core.CostModel as the one model of
# Section 1.2. It also holds the triangle reducer kernel
# (internal/triangle/kernel.go, which replaces a graphs.Graph per reducer
# cell): +60 lines net of the per-cell graph path, ownsTriangle, the
# dedup map and the tripleID loops it deleted.
# Lowered 6 203 -> 5 828 by the reachability sweep: exports only tests
# called (problems.RunHashJoin and RunGroupBy, core.CoverageCount and
# three Recipe methods, join.PredictedReplicationRate,
# Relation.Sort/clone/Arity, subgraph.Automorphisms and InstanceCount,
# hamming.MaxPairsBruteForce, and more) went. core.SchemaFunc and
# SingleReducerSchema, relation.Chain and join.Shares.ShareByName
# (42 lines) moved into the tests as schemaFunc/singleReducer,
# randomChain and shareOf: net of them, -333.
# Raised 5 828 -> 5 915 for the Hamming distance-1 kernel
# (internal/hamming/kernel.go: a dense count-table path and a sparse
# sort-and-probe path) that RunSplitting and RunWeight share, net of the
# two all-pairs reducer loops it replaced; +3 for core/cost.go's note
# that those reducers are no longer O(q²). The dense path is what the
# Splitting groups of the benchmark take: with the sparse path alone,
# hamming_mem measured ~0.16 s against ~0.11 s.
# Lowered 5 915 -> 5 906: subgraph.Matcher.Run sorts its embeddings with
# slices.SortFunc(embs, slices.Compare), and the hand-written
# lessIntSlice went.
# Lowered 5 906 -> 5 890 when mrbounds became the one generator of the
# paper's tables: triangle.Options with its EmitAll knob (set only by an
# ablation benchmark), Run's dedup and the kernel's emit-all branch, and
# bitstr.Weight (a wrapper of bits.OnesCount64) went; mrbounds' weight
# table runs hamming.RunWeight on the engine instead of core.Measure.
PAPER_CEILING=5890
PAPER="core catalog hamming bitstr triangle graphs subgraph matmul join lp problems relation"

count() {
	find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

plane=0
relay=0
for pkg in shuffle proc runfile engine mr; do
	n=$(count "internal/$pkg")
	printf '%-8s %6d\n' "$pkg" "$n"
	case "$pkg" in
	shuffle | proc | runfile) plane=$((plane + n)) ;;
	engine | mr) relay=$((relay + n)) ;;
	esac
done
printf 'shuffle+proc+runfile %d (ceiling %d)\n' "$plane" "$CEILING"
printf 'engine+mr %d (ceiling %d)\n' "$relay" "$RELAY_CEILING"
paper=0
for dir in $(printf 'internal/%s ' $PAPER) cmd/*; do
	paper=$((paper + $(count "$dir")))
done
printf 'paper side %d (ceiling %d)\n' "$paper" "$PAPER_CEILING"
status=0
if [ "$plane" -gt "$CEILING" ]; then
	echo "line ratchet: internal/shuffle+proc+runfile grew past $CEILING non-test lines" >&2
	status=1
fi
if [ "$relay" -gt "$RELAY_CEILING" ]; then
	echo "line ratchet: internal/engine+mr grew past $RELAY_CEILING non-test lines" >&2
	status=1
fi
if [ "$paper" -gt "$PAPER_CEILING" ]; then
	echo "line ratchet: the paper side (internal/core, catalog, family packages, cmd) grew past $PAPER_CEILING non-test lines" >&2
	status=1
fi
exit "$status"
