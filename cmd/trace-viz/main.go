// Command trace-viz runs one of the built-in workloads under the
// pipelined executor with tracing enabled and writes either an SVG
// Gantt timeline of per-statement activity — the graphical version of
// the paper's Figure 2 overlap picture, measured rather than drawn —
// or a Chrome/Perfetto trace_event JSON file (open it at
// ui.perfetto.dev or chrome://tracing; see docs/OBSERVABILITY.md).
//
// Usage:
//
//	trace-viz -kernel listing3 -n 48 -workers 4 -o overlap.svg
//	trace-viz -kernel 3gmm -rows 128 -o gmm.svg
//	trace-viz -kernel P5 -n 10 -size 2 -format json -o p5.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/par"
	"repro/polypipe"
)

func main() {
	kernel := flag.String("kernel", "listing3", "workload: listing1, listing3, P1..P10, or {2,3,4}{mm,mmt,gmm,gmmt}")
	n := flag.Int("n", 32, "grid size for listing/P workloads")
	size := flag.Int("size", 2, "SIZE for P workloads")
	rows := flag.Int("rows", 96, "rows for matrix-chain workloads")
	workers := flag.Int("workers", 4, "pipeline workers (0 = GOMAXPROCS)")
	format := flag.String("format", "svg", "output format: svg (Gantt timeline) or json (Perfetto trace_event)")
	out := flag.String("o", "", "output file (default trace.<format>)")
	flag.Parse()

	if err := checkFormat(*format); err != nil {
		fatal(err)
	}
	prog, err := buildKernel(*kernel, *n, *size, *rows)
	if err != nil {
		fatal(err)
	}
	name := outputName(*out, *format)
	f, err := os.Create(name)
	if err != nil {
		fatal(err)
	}
	switch *format {
	case "svg":
		err = polypipe.NewSession(polypipe.WithWorkers(*workers)).TraceSVG(f, prog)
	case "json":
		err = polypipe.TraceJSON(f, prog, *workers, polypipe.Options{})
	}
	if err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Println(summary(name, prog.Name, *workers))
}

// summary is the line trace-viz ends with, naming the worker count the
// run resolved -workers to (0 or less means GOMAXPROCS).
func summary(name, kernel string, workers int) string {
	return fmt.Sprintf("wrote %s (%s, %d workers)", name, kernel, par.Workers(workers))
}

// checkFormat validates the -format flag.
func checkFormat(format string) error {
	switch format {
	case "svg", "json":
		return nil
	}
	return fmt.Errorf("unknown format %q (want svg or json)", format)
}

// outputName resolves the output path: an explicit -o wins, otherwise
// trace.<format>.
func outputName(out, format string) string {
	if out != "" {
		return out
	}
	return "trace." + format
}

func buildKernel(name string, n, size, rows int) (*polypipe.Program, error) {
	return polypipe.Kernel(name, n, size, rows)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trace-viz:", err)
	os.Exit(1)
}
