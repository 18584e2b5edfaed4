// Command mrworker demonstrates the crash-tolerant multi-process
// execution mode (internal/proc) end to end with a single binary that
// plays both roles. Launched normally it is the driver: it forks
// worker processes (re-executions of itself), assigns map and reduce
// tasks over a unix-socket RPC seam with lease-based heartbeats, and
// assembles the final output. Re-executed with the worker environment
// set (proc.MaybeWorker) the same binary becomes a worker process.
//
// Usage:
//
//	mrworker -inputs 5000 -workers 4 -partitions 8
//	mrworker -input corpus.txt -workers 4 -top 10
//	mrworker -inputs 5000 -chaos
//
// -chaos kill -9s one worker the moment it commits its first map task
// — mid-round, while tasks are in flight — and the run must still
// finish with exactly the output a crash-free run produces; the fault
// counters printed at the end show the recovery that made it so.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/proc"
)

// wcOut is one word's count, the demo wordcount job's output record.
type wcOut struct {
	Word  string
	Count int
}

// registerJobs registers the demo job in this process. The driver and
// every worker run through here (workers before MaybeWorker hijacks
// the process), so both roles execute the same code — the registration
// contract of the proc runtime.
func registerJobs() {
	proc.Register(engine.Round[string, string, int, wcOut]{
		Name: "wordcount",
		Map: func(line string, emit func(string, int)) {
			for _, w := range strings.Fields(line) {
				emit(strings.ToLower(strings.Trim(w, ".,;:!?\"'()")), 1)
			}
		},
		Combine: func(_ string, vs []int) []int {
			s := 0
			for _, v := range vs {
				s += v
			}
			return []int{s}
		},
		Reduce: func(k string, vs []int, emit func(wcOut)) {
			s := 0
			for _, v := range vs {
				s += v
			}
			emit(wcOut{Word: k, Count: s})
		},
	})
}

type options struct {
	input      string // corpus file; empty generates a synthetic corpus
	inputs     int    // synthetic corpus size in lines
	workers    int
	partitions int
	chunk      int
	budget     int // per-partition buffered-pair bound inside workers; 0 = unbounded
	q          int // reducer-size limit (paper's q); 0 = unlimited
	splitpairs int // reduce range-split target in pairs; 0 = whole-partition merges
	lease      time.Duration
	timeout    time.Duration
	top        int
	chaos      bool
	keep       bool
	dir        string
}

func main() {
	registerJobs()
	proc.MaybeWorker() // worker role: never returns

	var o options
	flag.StringVar(&o.input, "input", "", "corpus file, one document per line (default: synthetic)")
	flag.IntVar(&o.inputs, "inputs", 2000, "synthetic corpus size in lines (when -input is empty)")
	flag.IntVar(&o.workers, "workers", 3, "worker processes")
	flag.IntVar(&o.partitions, "partitions", 8, "shuffle partitions")
	flag.IntVar(&o.chunk, "chunk", 0, "input lines per map task (0: auto)")
	flag.IntVar(&o.budget, "budget", 0, "worker memory budget in buffered pairs per partition (0: unbounded)")
	flag.IntVar(&o.q, "q", 0, "fail if any reducer receives more than q values (0: unlimited)")
	flag.IntVar(&o.splitpairs, "splitpairs", 0, "split reduce merges into concurrent key ranges of ~this many pairs (0: whole-partition merges)")
	flag.DurationVar(&o.lease, "lease", 2*time.Second, "task lease TTL")
	flag.DurationVar(&o.timeout, "timeout", 2*time.Minute, "whole-run deadline")
	flag.IntVar(&o.top, "top", 10, "print the top N words")
	flag.BoolVar(&o.chaos, "chaos", false, "kill -9 one worker mid-round and recover")
	flag.BoolVar(&o.keep, "keep", false, "keep the scratch directory for post-mortems")
	flag.StringVar(&o.dir, "dir", "", "scratch directory (default: private temp dir)")
	flag.Parse()

	if _, _, err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mrworker:", err)
		os.Exit(1)
	}
}

// run executes one driver-side job and prints the summary to out.
func run(o options, out io.Writer) ([]wcOut, engine.Metrics, error) {
	lines, err := loadCorpus(o)
	if err != nil {
		return nil, engine.Metrics{}, err
	}

	popts := proc.Options{
		Plan: engine.Plan{
			Workers:          o.workers,
			Partitions:       o.partitions,
			MapChunk:         o.chunk,
			MemoryBudget:     o.budget,
			MaxReducerInput:  o.q,
			ReduceSplitPairs: o.splitpairs,
		},
		Dir:      o.dir,
		KeepDir:  o.keep,
		LeaseTTL: o.lease,
		Timeout:  o.timeout,
	}
	if o.chaos {
		// Dwell a little per task so the kill lands mid-round, then
		// kill -9 the first worker to commit a map task.
		popts.WorkerEnv = []string{"MR_PROC_SLOW_MS=20"}
		var mu sync.Mutex
		pids := make(map[string]int)
		var once sync.Once
		popts.Hooks = proc.Hooks{
			OnSpawn: func(worker string, pid int) {
				mu.Lock()
				pids[worker] = pid
				mu.Unlock()
			},
			OnMapCommitted: func(task, attempt int, worker string) {
				once.Do(func() {
					mu.Lock()
					pid := pids[worker]
					mu.Unlock()
					fmt.Fprintf(out, "chaos: kill -9 worker %s (pid %d) after map task %d committed\n", worker, pid, task)
					if p, err := os.FindProcess(pid); err == nil {
						p.Kill()
					}
				})
			},
		}
	}

	start := time.Now()
	outs, met, err := proc.Run[string, string, int, wcOut]("wordcount", lines, popts)
	if err != nil {
		return nil, met, err
	}

	fmt.Fprintf(out, "%d lines -> %d words in %v across %d workers\n",
		met.MapInputs, met.Reducers, time.Since(start).Round(time.Millisecond), o.workers)
	fmt.Fprintf(out, "pairs: emitted=%d shuffled=%d peakResident=%d reduceRanges=%d  boundary: spilled=%dB(+%dB index) read=%dB\n",
		met.PairsEmitted, met.PairsShuffled, met.PeakResidentPairs, met.ReduceRanges, met.BytesSpilled, met.IndexBytesSpilled, met.DiskBytesRead)
	fmt.Fprintf(out, "faults: deaths=%d leasesExpired=%d retries=%d+%d salvaged=%d\n",
		met.WorkerDeaths, met.LeaseExpirations, met.MapRetries, met.ReduceRetries, met.SalvagedTasks)

	top := append([]wcOut(nil), outs...)
	for i := 1; i < len(top); i++ { // insertion sort by count desc, word asc
		for j := i; j > 0 && (top[j].Count > top[j-1].Count ||
			(top[j].Count == top[j-1].Count && top[j].Word < top[j-1].Word)); j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	for i := 0; i < o.top && i < len(top); i++ {
		fmt.Fprintf(out, "%6d  %s\n", top[i].Count, top[i].Word)
	}
	return outs, met, nil
}

// loadCorpus reads the input file or generates the synthetic corpus: a
// deterministic mix of common and rare words, the same shape the
// paper's skew discussion assumes.
func loadCorpus(o options) ([]string, error) {
	if o.input == "" {
		lines := make([]string, o.inputs)
		for i := range lines {
			lines[i] = fmt.Sprintf("the quick w%02d jumps over w%02d and rare%04d", i%37, (i*11)%53, i%997)
		}
		return lines, nil
	}
	f, err := os.Open(o.input)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	return lines, sc.Err()
}
