// Command bench is the repository's benchmark: five jobs from the paper's
// problem families run end to end (in memory, spilling, across worker
// processes), a per-layer ladder, and a traced run. See README.md.
//
//	go run -C bench .              every workload, every metric, traces in bench/out/
//	go run -C bench . -quick       the same at toy sizes, one repetition each
//	go run -C bench . -selfcheck   two sets of runs of one build must agree (A/A)
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                               one workload; the last line is a JSON result
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/mr"
)

func main() {
	// A ProcMode worker is this binary re-executed; the jobs it may be
	// asked for are registered in init (workloads.go).
	mr.MaybeProcWorker()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	name := fs.String("workload", "", "run one workload and print its result as a last-line JSON object (default: all)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs and the shuffle's hash placement")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long each workload's timed repetitions run (never fewer than 5 repetitions)")
	trace := fs.Int("trace", 0, "with -workload: 1 adds the traced repetitions and the ladder and prints the per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "toy sizes, one repetition of each kind")
	selfcheck := fs.Bool("selfcheck", false, "run the suite twice and compare every end-to-end metric against its bound in BENCHMARK.json")
	child := fs.Bool("child", false, "internal: measure -workload in this process")
	fs.StringVar(&o.outDir, "out", "", "directory for traces and scratch (default: bench/out beside BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.outDir == "" {
		o.outDir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o.trace = *trace != 0

	switch {
	case *child:
		err = childMain(ctx, *name, o, stdout)
	case *selfcheck:
		err = selfCheck(ctx, o, root, stdout)
	case *name != "":
		err = oneWorkload(ctx, *name, o, stdout)
	default:
		o.trace = true
		printHeader(stdout, o)
		_, err = suite(ctx, o, workloadNames(false), stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// repoRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		if dir == filepath.Dir(dir) {
			return "", errors.New("BENCHMARK.json not found at or above the working directory")
		}
		dir = filepath.Dir(dir)
	}
}

func workloadNames(reversed bool) []string {
	var names []string
	for _, w := range workloads {
		if reversed {
			names = append([]string{w.name}, names...)
		} else {
			names = append(names, w.name)
		}
	}
	return names
}

// printHeader records what the numbers below it were measured on.
func printHeader(w io.Writer, o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	sz, reps := fullSizes, fmt.Sprintf("setups=%d timed>=%d (%gs) traced=%d", setupRounds, minTimedReps, o.seconds, tracedReps)
	if o.quick {
		sz, reps = quickSizes, "setups=1 timed=1 traced=1"
	}
	fmt.Fprintf(w, "# bench commit=%s %s nproc=%d GOMAXPROCS=%d GOGC=%s GODEBUG=%s seed=%d workers=%d\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, measuringGODEBUG(), o.seed, min(runtime.NumCPU(), 4))
	fmt.Fprintf(w, "# sizes=%+v repetitions: %s\n", sz, reps)
}

// childMain measures one workload in this process, inside one scratch
// directory that is removed on every way out, and prints the report.
func childMain(ctx context.Context, name string, o options, stdout io.Writer) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	// The runtime read GODEBUG when this process started; what the
	// environment holds from here on is what ProcMode workers inherit.
	os.Setenv("GODEBUG", os.Getenv(workerGODEBUG))
	rep, err := measureInScratch(ctx, w, o)
	if rep != nil {
		data, jerr := json.Marshal(rep)
		if jerr != nil {
			return jerr
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	return err
}

// measureInScratch wraps measure with the scratch tree's lifetime: one
// os.MkdirTemp under the output directory, TMPDIR pointed into it so that
// the program's own temp files (ProcMode's socket) land there too, and
// removal on return, on failure and on SIGINT/SIGTERM.
func measureInScratch(ctx context.Context, w *workload, o options) (*report, error) {
	out, err := filepath.Abs(o.outDir)
	if err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(out, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			// A job cannot be cancelled mid-round (mr.Job.Run takes no
			// context): stop its worker processes, clean up and leave.
			killAll(childProcesses())
			os.RemoveAll(scratch)
			os.Exit(130)
		case <-done:
		}
	}()
	// A unix socket path holds about 100 bytes; only a short scratch path
	// can host TMPDIR.
	if tmp := filepath.Join(scratch, "tmp"); len(tmp) < 70 {
		if err := os.Mkdir(tmp, 0o755); err != nil {
			return nil, err
		}
		old, had := os.LookupEnv("TMPDIR")
		os.Setenv("TMPDIR", tmp)
		defer func() {
			if had {
				os.Setenv("TMPDIR", old)
			} else {
				os.Unsetenv("TMPDIR")
			}
		}()
	}
	return measure(w, o, scratch)
}

// workerGODEBUG carries the caller's own GODEBUG to the measuring process,
// which restores it for the ProcMode workers it forks.
const workerGODEBUG = "BENCH_WORKER_GODEBUG"

// measuringGODEBUG is the GODEBUG a measuring process runs under.
// madvdontneed=0 makes the Go runtime return memory with MADV_FREE: the
// harness calls debug.FreeOSMemory before every repetition, and with the
// default MADV_DONTNEED each repetition then pays for some 50,000 page
// faults whose cost in a VM varies fourfold from one repetition to the
// next, which is most of the run-to-run noise and none of the program's
// doing. ProcMode workers live for one repetition and keep the default.
func measuringGODEBUG() string {
	const own = "madvdontneed=0"
	if env := os.Getenv("GODEBUG"); env != "" {
		return env + "," + own
	}
	return own
}

// spawn measures one workload in a child process of this binary, so that
// each workload has its own peak memory and its own ProcMode workers.
func spawn(ctx context.Context, name string, o options) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.outDir}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GODEBUG="+measuringGODEBUG(), workerGODEBUG+"="+os.Getenv("GODEBUG"))
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 20 * time.Second
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s: child printed no report (%v): %w", name, runErr, err)
	}
	return &rep, runErr
}

// suite measures the named workloads one after another and prints every
// metric by name with its unit. It fails if any operation failed.
func suite(ctx context.Context, o options, names []string, stdout io.Writer) (map[string]*report, error) {
	reports := map[string]*report{}
	var failed int
	for _, name := range names {
		rep, err := spawn(ctx, name, o)
		if rep != nil {
			printReport(stdout, rep)
			failed += rep.Failed
			reports[name] = rep
		}
		if err != nil {
			return reports, err
		}
	}
	if failed > 0 {
		return reports, fmt.Errorf("%d operations failed", failed)
	}
	return reports, nil
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "\nworkload %s: %s\n", rep.Workload, rep.Sizes)
	fmt.Fprintf(w, "  operations attempted=%d failed=%d (set-ups=%d timed=%d traced=%d; timings are medians)\n",
		rep.Attempted, rep.Failed, rep.SetupReps, rep.TimedReps, rep.TracedReps)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.name, rep.E2E[d.name], d.unit)
	}
	if rep.Layers == nil {
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.name, rep.Layers[d.name], d.unit)
	}
	for _, line := range rep.Breakdown {
		fmt.Fprintf(w, "  | %s\n", line)
	}
	fmt.Fprintf(w, "  trace: %s\n", rep.TraceFile)
}

// oneWorkload is the driver's entry: measure one workload and print, as
// the last line, the result object BENCHMARK.json's contract asks for.
func oneWorkload(ctx context.Context, name string, o options, stdout io.Writer) error {
	if workloadByName(name) == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(false), ", "))
	}
	printHeader(stdout, o)
	rep, err := spawn(ctx, name, o)
	if rep == nil {
		return err
	}
	printReport(stdout, rep)
	if err != nil {
		return err
	}
	defs, values := endToEnd, rep.E2E
	if o.trace {
		defs, values = perLayer, rep.Layers
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, map[string]metric{}}
	for _, d := range defs {
		result.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	data, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return nil
}
