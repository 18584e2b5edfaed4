// Command mrtrace runs one of the paper's problem families as a real
// MapReduce round with the observability recorder armed, then exports
// the round's timeline as Chrome trace-event JSON (load it in Perfetto
// or chrome://tracing) and its metrics in Prometheus text format. The
// families and their settings come from internal/catalog; a setting of
// another family is rejected.
//
// Usage:
//
//	mrtrace -problem hamming  -bits 14 -inputs 4096   [-out trace.json]
//	mrtrace -problem triangle -nodes 300 -edges 1500 -k 4
//	mrtrace -problem twopaths -nodes 300 -edges 1500 -k 8
//	mrtrace -problem matmul   -side 48 -s 8 -t 8
//
// Add -budget to force spilling (the trace then shows seal/compact
// spans overlapping map-task spans — the SpillOverlapNs the metrics
// report), -metrics to also write a Prometheus snapshot, and -serve
// to keep the process alive with /metrics and /debug/pprof mounted.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"repro/internal/catalog"
	"repro/internal/mr"
	"repro/internal/obs"
)

type options struct {
	problem string
	params  catalog.Params // the family's instance settings and schema parameters

	seed       int64
	workers    int
	partitions int
	budget     int    // per-partition memory budget in pairs (0: no spill)
	spillDir   string // run-file directory; empty with -budget: temp dir
	ringCap    int

	out     string // trace JSON path
	metrics string // Prometheus snapshot path ("" : skip)
	serve   string // listen address ("" : exit after the run)
}

func main() {
	var o options
	flag.StringVar(&o.problem, "problem", "hamming", strings.Join(catalog.Names(), " | "))
	settingsOf := catalog.Flags(flag.CommandLine, catalog.Family.Settings)
	flag.Int64Var(&o.seed, "seed", 1, "input generator seed")
	flag.IntVar(&o.workers, "workers", 0, "map/reduce workers (0: NumCPU)")
	flag.IntVar(&o.partitions, "partitions", 0, "shuffle partitions (0: default)")
	flag.IntVar(&o.budget, "budget", 0, "per-partition memory budget in pairs (0: no spilling)")
	flag.StringVar(&o.spillDir, "spilldir", "", "spill directory (default: a temp dir when -budget is set)")
	flag.IntVar(&o.ringCap, "ring", obs.DefaultRingCap, "events kept per lane (ring buffer capacity)")
	flag.StringVar(&o.out, "out", "trace.json", "trace output path")
	flag.StringVar(&o.metrics, "metrics", "", "Prometheus metrics snapshot path (optional)")
	flag.StringVar(&o.serve, "serve", "", "keep serving /metrics and /debug/pprof on this address after the run")
	flag.Parse()

	_, params, err := settingsOf(o.problem)
	if err == nil {
		o.params = params
		err = run(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrtrace:", err)
		os.Exit(1)
	}
}

func run(o options, stdout io.Writer) error {
	f, err := catalog.Lookup(o.problem)
	if err != nil {
		return err
	}
	rec := obs.NewRecorder(o.ringCap)
	cfg := mr.Config{
		Workers:      o.workers,
		Partitions:   o.partitions,
		MemoryBudget: o.budget,
		Recorder:     rec,
	}
	if o.budget > 0 {
		dir := o.spillDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "mrtrace-spill-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
		}
		cfg.SpillDir = dir
	}

	reg := obs.NewRegistry()
	rounds, err := f.Run(o.params, o.seed, cfg)
	if err != nil {
		return err
	}
	for _, r := range rounds {
		r.Metrics.PublishTo(reg)
		fmt.Fprintf(stdout, "%s: %s\n", r.Name, r.Metrics.String())
	}
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(stdout, "warning: %d events dropped on ring wrap; rerun with -ring > %d for a complete trace\n", d, o.ringCap)
	}

	if err := obs.WriteTraceFile(o.out, rec); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace written to %s (load in Perfetto or chrome://tracing)\n", o.out)

	if o.metrics != "" {
		if err := reg.WritePrometheusFile(o.metrics); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics written to %s\n", o.metrics)
	}

	if o.serve != "" {
		srv, err := obs.Serve(o.serve, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "serving /metrics, /debug/pprof, /debug/vars on %s (interrupt to exit)\n", srv.Addr)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
	return nil
}
