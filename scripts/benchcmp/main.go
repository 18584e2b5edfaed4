// Command benchcmp compares two BENCH_shuffle.json artifacts (as
// written by scripts/bench.sh) and fails when a watched metric
// regresses beyond a threshold.
//
// Usage:
//
//	go run ./scripts/benchcmp [-threshold 0.10] [-ns-threshold 0.50] [-peak-threshold 0.10] \
//	    [-floor 'name:metric:min' ...] [-ceil 'name:metric:max' ...] old.json new.json
//
// For every benchmark present in both files it compares the watched
// metrics:
//
//   - spilled-MB (growth is worse) against -threshold (default 10%):
//     the deterministic disk-traffic budget of the external shuffle.
//   - peak-resident-pairs (growth is worse) against -peak-threshold
//     (default 10%): the streaming path's whole-round memory bound.
//     The in-test assertion enforces the hard P*budget+workers*blocks
//     ceiling; this gate additionally catches drift underneath it.
//     Scheduling jitter moves the realized peak a few percent between
//     runs, so the gate is near-tight rather than exact.
//   - ns/op (growth is worse) and values/s and input-pairs/s
//     (shrinkage is worse) against the much looser -ns-threshold
//     (default 50%).
//   - reclaimed-MB (mid-round spill-file reclamation) on presence
//     only: its realized value is relief-timing-dependent, but a drop
//     to zero means reclamation stopped working.
//   - proc-peak-resident-pairs, additionally, against the absolute
//     ceiling the same benchmark reports as proc-peak-bound: the
//     multi-process round's realized worker residency must sit under
//     the MemoryBudget's promise on the new artifact alone, previous
//     run or not.
//   - range-makespan-pairs against lpt-makespan-pairs wherever a
//     benchmark reports both: the range-split reduce plan must beat
//     whole-partition LPT on planned makespan, on the new artifact
//     alone (the skewed-partition benchmark exists to pin exactly
//     this).
//   - reduce-ranges on presence only: the streaming benchmark plans
//     range-split read-back units from the run indexes, and a drop to
//     zero means the splitter stopped engaging.
//
// Repeated -floor name:metric:min flags add absolute minimums checked
// against the new artifact alone — the CI direction gates, e.g. the
// streaming values/s floor that pins the range-split read-back's
// speedup. Repeated -ceil name:metric:max flags are the same with an
// absolute maximum — the key-plan lanes' allocs/op == 0 gate. The name
// matches with any -<digits> GOMAXPROCS suffix stripped, and also names
// every sub-benchmark beneath it (BenchmarkKeyPlan/hash covers
// BenchmarkKeyPlan/hash/int-2).
//
// The asymmetry is deliberate: spilled bytes and peak residency are
// (near-)reproducible, while ns/op and values/s from a handful of
// iterations on a shared CI runner vary 20-30% on identical code, so a
// tight wall-clock gate would fail routinely on noise — those two are
// catastrophic-regression backstops, and the benchstat diff CI prints
// alongside is the statistically honest wall-clock view. Benchmarks
// present on one side only are reported and skipped, so workloads can
// be added or retired without tripping the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type benchFile struct {
	Benchmarks []map[string]any `json:"benchmarks"`
}

func load(path string) (map[string]map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string]float64)
	for _, b := range bf.Benchmarks {
		name, _ := b["name"].(string)
		if name == "" {
			continue
		}
		metrics := make(map[string]float64)
		for k, v := range b {
			if f, ok := v.(float64); ok {
				metrics[k] = f
			}
		}
		out[name] = metrics
	}
	return out, nil
}

// gate is one watched metric: the allowed fractional regression and
// which direction counts as worse. presenceOnly gates trip only when
// the metric collapses to zero — for quantities whose realized value
// is timing-dependent but whose disappearance means a feature stopped
// working.
type gate struct {
	limit         float64
	lowerIsBetter bool
	presenceOnly  bool
}

// floorFlag is one -floor name:metric:min or -ceil name:metric:max
// absolute gate; bound is the minimum or the maximum.
type floorFlag struct {
	name, metric string
	bound        float64
}

type floorFlags []floorFlag

func (f *floorFlags) String() string { return fmt.Sprint([]floorFlag(*f)) }

func (f *floorFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) < 3 {
		return fmt.Errorf("gate %q: want name:metric:bound", v)
	}
	bound, err := strconv.ParseFloat(parts[len(parts)-1], 64)
	if err != nil {
		return fmt.Errorf("gate %q: bad bound: %w", v, err)
	}
	// The benchmark name itself may contain colons only if quoted oddly;
	// metric names may not, so split from the right.
	*f = append(*f, floorFlag{
		name:   strings.Join(parts[:len(parts)-2], ":"),
		metric: parts[len(parts)-2],
		bound:  bound,
	})
	return nil
}

// stripProcs drops the -<digits> GOMAXPROCS suffix go test appends to
// benchmark names, so floors written once hold across runner core
// counts.
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func main() {
	threshold := flag.Float64("threshold", 0.10, "allowed fractional growth in spilled-MB")
	nsThreshold := flag.Float64("ns-threshold", 0.50, "allowed fractional regression in ns/op and values/s (loose: point samples are noisy)")
	peakThreshold := flag.Float64("peak-threshold", 0.10, "allowed fractional growth in peak-resident-pairs")
	var floors, ceils floorFlags
	flag.Var(&floors, "floor", "absolute minimum gate name:metric:min, checked on the new artifact alone (repeatable)")
	flag.Var(&ceils, "ceil", "absolute maximum gate name:metric:max, checked on the new artifact alone (repeatable)")
	flag.Parse()
	watched := map[string]gate{
		"spilled-MB":          {limit: *threshold, lowerIsBetter: true},
		"ns/op":               {limit: *nsThreshold, lowerIsBetter: true},
		"peak-resident-pairs": {limit: *peakThreshold, lowerIsBetter: true},
		// The proc-mode worker residency mark, against the same drift
		// gate; its hard ceiling is the absolute proc-peak-bound check
		// below.
		"proc-peak-resident-pairs": {limit: *peakThreshold, lowerIsBetter: true},
		"values/s":                 {limit: *nsThreshold},
		// input-pairs/s is the cross-lane throughput number (values/s is
		// post-combine volume in combiner lanes); same loose wall-clock
		// gate as values/s.
		"input-pairs/s": {limit: *nsThreshold},
		// reclaimed-MB is the spill bytes handed back to the filesystem
		// mid-round (rotated spools, compacted inputs, drained swap
		// files). How much is reclaimed depends on relief timing and
		// swings widely between runs, so no fractional gate is honest —
		// but dropping to zero means mid-round reclamation stopped
		// working, which is the regression worth catching.
		"reclaimed-MB": {presenceOnly: true},
		// reduce-ranges counts the index-planned range-split read units;
		// zero where it used to be nonzero means the splitter stopped
		// engaging (plan disabled, indexes gone, or thresholds drifted).
		"reduce-ranges": {presenceOnly: true},
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-threshold 0.10] old.json new.json")
		os.Exit(2)
	}
	old, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}

	regressions := 0
	compared := 0

	// Absolute gate, new artifact alone: whenever a benchmark reports
	// both proc-peak-resident-pairs and proc-peak-bound, the realized
	// worker residency must sit at or under the bound the MemoryBudget
	// promised. Unlike the relative gates this needs no previous run —
	// a first artifact that violates the memory bound already fails.
	for name, now := range cur {
		peak, okP := now["proc-peak-resident-pairs"]
		bound, okB := now["proc-peak-bound"]
		if !okP || !okB || bound <= 0 {
			continue
		}
		compared++
		status := "ok"
		if peak > bound {
			status = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-60s %-20s peak=%.4g bound=%.4g (absolute gate: peak <= bound) %s\n",
			name, "proc-peak-bound", peak, bound, status)
	}

	// Absolute gate, new artifact alone: wherever a benchmark reports
	// both plans' makespans, the range-split plan must strictly beat
	// whole-partition LPT — the point of index-driven key-range
	// splitting under skew.
	for name, now := range cur {
		rng, okR := now["range-makespan-pairs"]
		lpt, okL := now["lpt-makespan-pairs"]
		if !okR || !okL || lpt <= 0 {
			continue
		}
		compared++
		status := "ok"
		if rng >= lpt {
			status = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-60s %-20s range=%.4g lpt=%.4g (absolute gate: range < lpt) %s\n",
			name, "range-makespan", rng, lpt, status)
	}

	// -floor and -ceil gates: absolute bounds on the new artifact alone.
	checkBounds := func(bounds floorFlags, ceil bool) {
		kind, rel := "floor", ">="
		if ceil {
			kind, rel = "ceil", "<="
		}
		for _, fl := range bounds {
			found := false
			for name, now := range cur {
				if base := stripProcs(name); name != fl.name && base != fl.name && !strings.HasPrefix(base, fl.name+"/") {
					continue
				}
				v, ok := now[fl.metric]
				if !ok {
					continue
				}
				found = true
				compared++
				status := "ok"
				if (!ceil && v < fl.bound) || (ceil && v > fl.bound) {
					status = "REGRESSION"
					regressions++
				}
				fmt.Printf("%-60s %-20s new=%.4g %s=%.4g (absolute gate: new %s %s) %s\n",
					name, fl.metric, v, kind, fl.bound, rel, kind, status)
			}
			if !found {
				fmt.Fprintf(os.Stderr, "benchcmp: %s %s:%s matched no benchmark in the new artifact\n", kind, fl.name, fl.metric)
				regressions++
			}
		}
	}
	checkBounds(floors, false)
	checkBounds(ceils, true)

	for name, now := range cur {
		prev, ok := old[name]
		if !ok {
			fmt.Printf("new benchmark (skipped): %s\n", name)
			continue
		}
		for m, g := range watched {
			ov, okO := prev[m]
			nv, okN := now[m]
			if !okO || !okN || ov <= 0 {
				continue
			}
			if g.presenceOnly {
				compared++
				status := "ok"
				if nv <= 0 {
					status = "REGRESSION"
					regressions++
				}
				fmt.Printf("%-60s %-20s old=%.4g new=%.4g (presence gate: nonzero required) %s\n",
					name, m, ov, nv, status)
				continue
			}
			if nv <= 0 {
				continue
			}
			compared++
			// regression is the fractional move in the bad direction.
			regression := nv/ov - 1
			if !g.lowerIsBetter {
				regression = ov/nv - 1
			}
			limit := g.limit
			if m == "ns/op" {
				if _, proc := now["proc-peak-bound"]; proc {
					// A proc-mode round forks a worker fleet per iteration, so
					// its wall clock is spawn-dominated and routinely swings
					// past the normal ns/op backstop on identical code. Its
					// real gate is residency-vs-bound above; wall clock keeps
					// only a catastrophic-regression limit.
					limit *= 3
				}
			}
			status := "ok"
			if regression > limit {
				status = "REGRESSION"
				regressions++
			}
			fmt.Printf("%-60s %-20s old=%.4g new=%.4g (%+.1f%% worse, limit +%.0f%%) %s\n",
				name, m, ov, nv, regression*100, limit*100, status)
		}
	}
	for name := range old {
		if _, ok := cur[name]; !ok {
			fmt.Printf("retired benchmark (skipped): %s\n", name)
		}
	}
	if compared == 0 {
		fmt.Println("benchcmp: no comparable metrics; nothing to gate")
		return
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d metric(s) regressed past their limit\n", regressions)
		os.Exit(1)
	}
	fmt.Printf("benchcmp: %d metric comparisons within limits\n", compared)
}
