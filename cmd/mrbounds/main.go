// Command mrbounds regenerates every table and figure of Afrati, Das
// Sarma, Salihoglu and Ullman, "Upper and Lower Bounds on the Cost of a
// Map-Reduce Computation" (VLDB 2013), by executing the paper's mapping
// schemas on the in-process MapReduce engine and printing measured
// replication rates, reducer sizes, and communication next to the paper's
// closed-form bounds.
//
// Usage:
//
//	mrbounds <experiment>
//
// With no argument it lists the experiments (one per table, figure or
// section, from experiments() below); `all` runs every one in order.
package main

import (
	"fmt"
	"os"
)

// experiment is one regenerable paper artifact.
type experiment struct {
	name  string
	about string
	run   func()
}

func experiments() []experiment {
	return []experiment{
		{"table1", "Table 1: lower bounds on replication rate", runTable1},
		{"table2", "Table 2: measured upper bounds", runTable2},
		{"fig1", "Figure 1: Hamming-1 r vs log2 q", runFig1},
		{"weight", "Sections 3.4-3.5: weight-partition algorithm", runWeight},
		{"hdd", "Section 3.6: Hamming distance d > 1", runHDD},
		{"triangles", "Section 4: triangle finding", runTriangles},
		{"twopaths", "Section 5.4: 2-paths", runTwoPaths},
		{"joins", "Section 5.5: multiway joins", runJoins},
		{"matmul", "Section 6.3: one- vs two-phase matmul", runMatMul},
		{"cost", "Section 1.2: cost model", runCost},
		{"validate", "Section 2.2: exhaustive schema validation", runValidate},
	}
}

// runTitled runs the experiment under the section header `all` prints.
func (e experiment) runTitled() {
	fmt.Printf("\n============ %s — %s ============\n", e.name, e.about)
	e.run()
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "all" {
		for _, e := range experiments() {
			e.runTitled()
		}
		return
	}
	for _, e := range experiments() {
		if e.name == name {
			e.run()
			return
		}
	}
	fmt.Fprintf(os.Stderr, "mrbounds: unknown experiment %q\n\n", name)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mrbounds <experiment>")
	fmt.Fprintln(os.Stderr, "experiments:")
	for _, e := range experiments() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", e.name, e.about)
	}
	fmt.Fprintln(os.Stderr, "  all        run everything")
}
