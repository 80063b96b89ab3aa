// Command bench-pipeline regenerates the paper's Figure 10: the
// speed-up of the cross-loop-pipelined execution over the sequential
// execution for the ten Table 9 programs across a grid of (N, SIZE)
// configurations, on a fixed number of workers (4 in the paper's
// quad-core setup).
//
// Absolute numbers depend on the host; the paper's qualitative shape —
// every program gains, by an amount set by its access patterns and
// num_i cost vector — is what this harness reproduces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/kernels"
	"repro/internal/report"
	"repro/polypipe"
)

// cellResult is one (program, N, SIZE) measurement of a -json run.
type cellResult struct {
	Prog          string  `json:"prog"`
	N             int     `json:"n"`
	Size          int     `json:"size"`
	Speedup       float64 `json:"speedup"`
	Executor      string  `json:"executor"`
	ElapsedNs     int64   `json:"elapsed_ns"`
	Tasks         int     `json:"tasks"`
	MaxConcurrent int     `json:"max_concurrent"`
	StallNs       int64   `json:"stall_ns"`
	Utilization   float64 `json:"utilization"`
}

// runResult is the whole bench run as one JSON object, so a run can be
// consumed without scraping the text table.
type runResult struct {
	Workers int          `json:"workers"`
	Mode    string       `json:"mode"`
	Reps    int          `json:"reps"`
	Cells   []cellResult `json:"cells"`
}

// observeCell runs one observed pipelined execution and folds its
// metrics into a cell.
func observeCell(p *kernels.Program, workers int, spec kernels.T9Spec, n, size int, speedup float64) (cellResult, error) {
	m, err := polypipe.Observe(p, workers, polypipe.Options{})
	if err != nil {
		return cellResult{}, err
	}
	return cellResult{
		Prog:          spec.Name,
		N:             n,
		Size:          size,
		Speedup:       speedup,
		Executor:      m.Result.Executor,
		ElapsedNs:     m.Result.Elapsed.Nanoseconds(),
		Tasks:         m.Result.Tasks,
		MaxConcurrent: m.Result.MaxConcurrent,
		StallNs:       m.Analysis.TotalStall.Nanoseconds(),
		Utilization:   m.Analysis.Utilization(workers),
	}, nil
}

func main() {
	ns := flag.String("n", "8,12,16", "comma-separated matrix sizes N")
	sizes := flag.String("size", "4,8", "comma-separated gmp_data SIZE values")
	workers := flag.Int("workers", 4, "pipeline worker count (the paper's core count)")
	progs := flag.String("progs", "", "comma-separated program subset (default: all of P1..P10)")
	reps := flag.Int("reps", 1, "repetitions per cell (best time wins)")
	mode := flag.String("mode", "sim", "sim (virtual time, works on any host) or real (wall clock)")
	overhead := flag.Duration("task-overhead", 500*time.Nanosecond, "per-task scheduling overhead modelled in sim mode")
	table9 := flag.Bool("table9", false, "print the Table 9 program specifications (Figure 9) and exit")
	jsonOut := flag.Bool("json", false, "emit the run's results (speedups plus observed stall/utilization metrics) as one JSON object on stdout")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	flag.Parse()
	if *table9 {
		fmt.Print(table9Spec())
		return
	}
	if *reps < 1 {
		fatal(fmt.Errorf("-reps %d, want >= 1", *reps))
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()
	if *mode != "sim" && *mode != "real" {
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	nVals, err := parseInts(*ns)
	if err != nil {
		fatal(err)
	}
	sizeVals, err := parseInts(*sizes)
	if err != nil {
		fatal(err)
	}
	var specs []kernels.T9Spec
	if *progs == "" {
		specs = kernels.Table9
	} else {
		for _, name := range strings.Split(*progs, ",") {
			spec, ok := kernels.T9SpecByName(strings.TrimSpace(name))
			if !ok {
				fatal(fmt.Errorf("unknown program %q", name))
			}
			specs = append(specs, spec)
		}
	}

	var colLabels []string
	type cfg struct{ n, size int }
	var cfgs []cfg
	for _, n := range nVals {
		for _, s := range sizeVals {
			cfgs = append(cfgs, cfg{n, s})
			colLabels = append(colLabels, fmt.Sprintf("N=%d,SZ=%d", n, s))
		}
	}

	if !*jsonOut {
		fmt.Printf("Figure 10 reproduction: pipelined vs sequential speed-up (workers=%d, reps=%d, mode=%s)\n\n",
			*workers, *reps, *mode)
	}

	run := runResult{Workers: *workers, Mode: *mode, Reps: *reps}
	var rowLabels []string
	var grid [][]float64
	for _, spec := range specs {
		rowLabels = append(rowLabels, spec.Name)
		row := make([]float64, 0, len(cfgs))
		for _, c := range cfgs {
			p, err := kernels.Table9Program(spec.Name, c.n, c.size)
			if err != nil {
				fatal(err)
			}
			sess := polypipe.NewSession(polypipe.WithWorkers(*workers))
			if err := sess.Verify(p); err != nil {
				fatal(fmt.Errorf("%s N=%d SIZE=%d: %w", spec.Name, c.n, c.size, err))
			}
			best := 0.0
			for r := 0; r < *reps; r++ {
				var speedup float64
				var err error
				if *mode == "sim" {
					var out []float64
					out, err = sess.Simulate(p, polypipe.SimConfig{Procs: []int{*workers}, Overhead: *overhead})
					if err == nil {
						speedup = out[0]
					}
				} else {
					_, _, speedup, err = sess.Speedup(p)
				}
				if err != nil {
					fatal(err)
				}
				if speedup > best {
					best = speedup
				}
			}
			row = append(row, best)
			if *jsonOut {
				cell, err := observeCell(p, *workers, spec, c.n, c.size, best)
				if err != nil {
					fatal(err)
				}
				run.Cells = append(run.Cells, cell)
			}
			fmt.Fprintf(os.Stderr, ".")
		}
		grid = append(grid, row)
	}
	fmt.Fprintln(os.Stderr)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(run); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Println(report.Heatmap("prog", rowLabels, colLabels, grid))
}

// table9Spec renders the reconstructed Table 9 (the paper's Figure 9):
// per program, the nest count, num_i cost vector, and the cross-nest
// read accesses of each statement.
func table9Spec() string {
	t := report.NewTable("prog", "nests", "num_i", "memory access")
	for _, spec := range kernels.Table9 {
		nums := make([]string, len(spec.Nums))
		for i, n := range spec.Nums {
			nums[i] = strconv.Itoa(n)
		}
		var accesses []string
		for k, reads := range spec.Reads {
			for _, rd := range reads {
				accesses = append(accesses, fmt.Sprintf("S%d <- %s",
					k+1, strings.Replace(rd.Pat.String(), "A", fmt.Sprintf("A%d", rd.Src), 1)))
			}
		}
		t.Add(spec.Name,
			strconv.Itoa(len(spec.Nums)),
			strings.Join(nums, ","),
			strings.Join(accesses, "; "))
	}
	return t.String()
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// startProfiles begins CPU profiling and arranges the heap profile;
// the returned stop function is idempotent and must run before the
// process exits for the profiles to be complete.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench-pipeline: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench-pipeline: memprofile:", err)
			}
		}
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench-pipeline:", err)
	os.Exit(1)
}
