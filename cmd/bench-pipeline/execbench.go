package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/kernels"
)

// execMeasure is one (kernel, mode) execution benchmark measurement.
// Modes: "serial" (the sequential reference), "pipelined" (the unified
// runtime executor driven through the compiled IR), "autotuned"
// (profile-guided MinBlockIters search), "lower_first" (building the
// runtime IR from the task program), and "lower_reuse" (serving the
// memoized IR).
//
// GoMaxProcs records the parallelism the row was measured under so
// rows from differently-shaped hosts are never gate-compared;
// BlockIters records the tuned granularity of "autotuned" rows.
type execMeasure struct {
	Kernel      string `json:"kernel"`
	Mode        string `json:"mode"`
	Workers     int    `json:"workers,omitempty"`
	Tasks       int    `json:"tasks,omitempty"`
	BlockIters  int    `json:"block_iters,omitempty"`
	GoMaxProcs  int    `json:"gomaxprocs,omitempty"`
	Iterations  int    `json:"iterations,omitempty"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64  `json:"allocs_per_op,omitempty"`
}

// execBenchRun is the BENCH_exec.json schema: the host shape, the
// frozen pre-refactor baseline the unified runtime is measured
// against, and the fresh measurements (docs/PERFORMANCE.md explains
// how to read it).
type execBenchRun struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Workers    int    `json:"workers"`
	Note       string `json:"note"`
	// Baseline holds the per-submit-resolution tasking runtime's
	// numbers (the tree as of commit 9befa4f), recorded on the same
	// host: "serial" is the sequential reference, "tasking" the old
	// pipelined path that re-resolved dependency addresses on every
	// Submit.
	Baseline []execMeasure `json:"pre_refactor_baseline"`
	Results  []execMeasure `json:"results"`
}

// preRefactorBaseline is the execution benchmark of the pre-IR tasking
// runtime (the tree as of commit 9befa4f), measured with 4 workers on
// the same container the committed results come from (Intel Xeon @
// 2.10GHz, 1 CPU). Frozen so every later -exec-bench run reports the
// trajectory against the same origin.
var preRefactorBaseline = []execMeasure{
	{Kernel: "P4/n=32", Mode: "serial", NsPerOp: 275844447},
	{Kernel: "P4/n=32", Mode: "tasking", Workers: 4, Tasks: 1991, NsPerOp: 285678907},
	{Kernel: "P4/n=64", Mode: "serial", NsPerOp: 1198560266},
	{Kernel: "P4/n=64", Mode: "tasking", Workers: 4, Tasks: 8583, NsPerOp: 1247279014},
	{Kernel: "P4/n=128", Mode: "serial", NsPerOp: 4918059335},
	{Kernel: "P4/n=128", Mode: "tasking", Workers: 4, Tasks: 35591, NsPerOp: 5113438916},
	{Kernel: "P7/n=32", Mode: "serial", NsPerOp: 620940112},
	{Kernel: "P7/n=32", Mode: "tasking", Workers: 4, Tasks: 2372, NsPerOp: 635655668},
	{Kernel: "P7/n=64", Mode: "serial", NsPerOp: 2635999586},
	{Kernel: "P7/n=64", Mode: "tasking", Workers: 4, Tasks: 9860, NsPerOp: 2696127812},
	{Kernel: "P7/n=128", Mode: "serial", NsPerOp: 11438210368},
	{Kernel: "P7/n=128", Mode: "tasking", Workers: 4, Tasks: 40196, NsPerOp: 11505990999},
	{Kernel: "P10/n=32", Mode: "serial", NsPerOp: 342539935},
	{Kernel: "P10/n=32", Mode: "tasking", Workers: 4, Tasks: 3658, NsPerOp: 350100435},
	{Kernel: "P10/n=64", Mode: "serial", NsPerOp: 1437986164},
	{Kernel: "P10/n=64", Mode: "tasking", Workers: 4, Tasks: 15498, NsPerOp: 1504681874},
	{Kernel: "P10/n=128", Mode: "serial", NsPerOp: 6064838125},
	{Kernel: "P10/n=128", Mode: "tasking", Workers: 4, Tasks: 63754, NsPerOp: 6255253668},
}

// execCase is one execution benchmark kernel: the program plus its
// compiled task program, shared by every mode so all run the identical
// blocking.
type execCase struct {
	name string
	n    int
	p    *kernels.Program
	prog *codegen.TaskProgram
}

// execBenchCases builds the execution benchmark kernels: the same
// three Table 9 programs the detection benchmark uses, compiled once
// per (program, size) so every mode runs the identical task program.
func execBenchCases(sizes []int) ([]execCase, error) {
	var cases []execCase
	for _, name := range []string{"P4", "P7", "P10"} {
		spec, ok := kernels.T9SpecByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown Table 9 program %q", name)
		}
		for _, n := range sizes {
			p := kernels.BuildTable9(spec, n, 1)
			info, err := core.Detect(p.SCoP, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("exec-bench %s/n=%d: detect: %w", name, n, err)
			}
			prog, err := codegen.Compile(info)
			if err != nil {
				return nil, fmt.Errorf("exec-bench %s/n=%d: compile: %w", name, n, err)
			}
			cases = append(cases, execCase{fmt.Sprintf("%s/n=%d", name, n), n, p, prog})
		}
	}
	return cases, nil
}

// tuneOpts selects which kernels get the profile-guided "autotuned"
// rows. The search re-detects and re-executes the kernel per
// candidate, so it is restricted to the sizes listed in Sizes (the
// -autotune-sizes flag); the skipped cases are logged.
type tuneOpts struct {
	Enabled bool
	Sizes   []int
	Budget  int
}

func (t tuneOpts) wants(n int) bool {
	if !t.Enabled {
		return false
	}
	for _, s := range t.Sizes {
		if s == n {
			return true
		}
	}
	return false
}

// measureExec benchmarks every execution mode on the given cases. All
// pipelined modes use the same worker count as the frozen baseline so
// the trajectory stays comparable.
func measureExec(sizes []int, workers int, tune tuneOpts) ([]execMeasure, error) {
	cases, err := execBenchCases(sizes)
	if err != nil {
		return nil, err
	}
	var results []execMeasure
	// bestOf runs a benchmark twice and keeps the faster ns/op: the
	// big kernels run a single iteration per testing.Benchmark call,
	// and one noisy-neighbor sample would otherwise be the row.
	bestOf := func(fn func(b *testing.B)) testing.BenchmarkResult {
		best := testing.Benchmark(fn)
		if again := testing.Benchmark(fn); again.NsPerOp() < best.NsPerOp() {
			best = again
		}
		return best
	}
	record := func(name, mode string, w, tasks, blockIters int, r testing.BenchmarkResult) {
		results = append(results, execMeasure{
			Kernel:      name,
			Mode:        mode,
			Workers:     w,
			Tasks:       tasks,
			BlockIters:  blockIters,
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Fprintf(os.Stderr, "%s/%s: %d ns/op (%d iters)\n", name, mode, r.NsPerOp(), r.N)
	}
	for _, c := range cases {
		c := c
		tasks := c.prog.NumTasks()
		record(c.name, "serial", 0, 0, 0, bestOf(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exec.Sequential(c.p)
			}
		}))
		record(c.name, "pipelined", workers, tasks, 0, bestOf(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				exec.RunCompiled(c.p, c.prog, workers)
			}
		}))
		if tune.Enabled && !tune.wants(c.n) {
			fmt.Fprintf(os.Stderr, "%s/autotuned: skipped (n=%d not in -autotune-sizes)\n", c.name, c.n)
		}
		if tune.wants(c.n) {
			res, err := autotune.Tune(c.p, autotune.Config{
				Workers: workers,
				Budget:  tune.Budget,
				Reps:    1,
			})
			if err != nil {
				return nil, fmt.Errorf("exec-bench %s: autotune: %w", c.name, err)
			}
			fmt.Fprintf(os.Stderr, "%s/autotune: chose block_iters=%d after %d evals (converged=%v, search speedup %.2fx)\n",
				c.name, res.Chosen, res.Evals, res.Converged, res.Speedup())
			info, err := core.Detect(c.p.SCoP, core.Options{MinBlockIters: res.Chosen})
			if err != nil {
				return nil, fmt.Errorf("exec-bench %s: detect tuned: %w", c.name, err)
			}
			tuned, err := codegen.Compile(info)
			if err != nil {
				return nil, fmt.Errorf("exec-bench %s: compile tuned: %w", c.name, err)
			}
			record(c.name, "autotuned", workers, tuned.NumTasks(), res.Chosen, bestOf(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					exec.RunCompiled(c.p, tuned, workers)
				}
			}))
		}
	}
	// IR lowering cost: first lowering (resolving every dependency
	// address into the CSR edge arrays) vs serving the memoized IR.
	// One representative kernel per size keeps the run short; the cost
	// scales with task and edge count, not with the statement bodies.
	for _, c := range cases {
		c := c
		record(c.name, "lower_first", 0, c.prog.NumTasks(), 0, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = c.prog.BuildIR()
			}
		}))
		record(c.name, "lower_reuse", 0, c.prog.NumTasks(), 0, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = c.prog.Lower()
			}
		}))
	}
	return results, nil
}

// runExecBench measures the execution benchmark at the given sizes and
// writes the run as JSON to out ("" or "-" means stdout). It also
// prints the pipelined-vs-baseline-tasking comparison (the number the
// refactor is accountable for) and, per kernel, what the tuned
// blocking bought over plain pipelined.
func runExecBench(out string, sizes []int, workers int, tune tuneOpts, aot aotOpts) error {
	results, err := measureExec(sizes, workers, tune)
	if err != nil {
		return err
	}
	if aot.Enabled {
		rows, err := measureAOT(aot, workers)
		if err != nil {
			return err
		}
		reportAOT(rows)
		results = append(results, rows...)
	}
	run := execBenchRun{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    workers,
		Note: "pipelined executes the compiled runtime IR; \"autotuned\" adds profile-guided " +
			"MinBlockIters; \"aot_binary\" is the emitted standalone program's steady-state " +
			"pipelined time vs \"aot_inprocess\" on the same synthetic-bodied kernel, and " +
			"\"aot_compile\"/\"aot_compile_noopt\" time the gogen backend with passes on/off; " +
			"rows carry the gomaxprocs they were measured under and are only gate-compared on " +
			"a matching host; the baseline's \"tasking\" rows are the pre-IR runtime that " +
			"re-resolved dependencies per Submit",
		Baseline: preRefactorBaseline,
		Results:  results,
	}
	base := make(map[string]execMeasure, len(preRefactorBaseline))
	for _, m := range preRefactorBaseline {
		base[m.Kernel+"/"+m.Mode] = m
	}
	fresh := make(map[string]execMeasure, len(results))
	for _, m := range results {
		fresh[m.Kernel+"/"+m.Mode] = m
	}
	for _, m := range results {
		switch m.Mode {
		case "pipelined":
			if w, ok := base[m.Kernel+"/tasking"]; ok {
				fmt.Fprintf(os.Stderr, "exec-bench: %s pipelined %d ns/op vs pre-refactor tasking %d (%+.1f%%)\n",
					m.Kernel, m.NsPerOp, w.NsPerOp, 100*(float64(m.NsPerOp)/float64(w.NsPerOp)-1))
			}
		case "autotuned":
			if w, ok := fresh[m.Kernel+"/pipelined"]; ok {
				fmt.Fprintf(os.Stderr, "exec-bench: %s %s %d ns/op vs pipelined %d (%+.1f%%)\n",
					m.Kernel, m.Mode, m.NsPerOp, w.NsPerOp, 100*(float64(m.NsPerOp)/float64(w.NsPerOp)-1))
			}
		}
	}

	w := os.Stdout
	if out != "" && out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(run)
}

// runExecGate re-measures the execution benchmark and fails when any
// (kernel, mode) ns/op regresses more than tol against the committed
// gate file. Like the detection gate, only rows present on both sides
// are compared, improvements and in-tolerance jitter pass, and the
// gate file is rewritten only by an explicit -exec-bench run.
// Committed rows measured under a different GOMAXPROCS than the
// current host are skipped: a 1-CPU row gated on a multi-core host
// (or vice versa) would compare scheduling regimes, not regressions.
func runExecGate(gateFile string, tol float64, sizes []int, workers int, tune tuneOpts, aot aotOpts) error {
	data, err := os.ReadFile(gateFile)
	if err != nil {
		return fmt.Errorf("exec-gate: reading %s: %w", gateFile, err)
	}
	var committed execBenchRun
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("exec-gate: parsing %s: %w", gateFile, err)
	}
	procs := runtime.GOMAXPROCS(0)
	want := make(map[string]execMeasure, len(committed.Results))
	skippedProcs := 0
	for _, m := range committed.Results {
		// Rows predating per-row provenance (GoMaxProcs == 0) fall back
		// to the run-level header, which old files always carried.
		rowProcs := m.GoMaxProcs
		if rowProcs == 0 {
			rowProcs = committed.GoMaxProcs
		}
		if rowProcs != 0 && rowProcs != procs {
			skippedProcs++
			continue
		}
		want[m.Kernel+"/"+m.Mode] = m
	}
	if skippedProcs > 0 {
		fmt.Fprintf(os.Stderr, "exec-gate: skipping %d committed rows measured at different gomaxprocs (host has %d)\n",
			skippedProcs, procs)
	}
	if len(want) == 0 {
		return fmt.Errorf("exec-gate: %s has no results measured at gomaxprocs=%d to gate against", gateFile, procs)
	}

	fresh, err := measureExec(sizes, workers, tune)
	if err != nil {
		return err
	}
	if aot.Enabled {
		rows, err := measureAOT(aot, workers)
		if err != nil {
			return err
		}
		fresh = append(fresh, rows...)
	}
	var failures []string
	compared := 0
	for _, m := range fresh {
		key := m.Kernel + "/" + m.Mode
		w, ok := want[key]
		if !ok {
			fmt.Fprintf(os.Stderr, "exec-gate: %s not in %s, skipping\n", key, gateFile)
			continue
		}
		compared++
		status := "ok"
		if float64(m.NsPerOp) > float64(w.NsPerOp)*(1+tol) {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %d ns/op vs committed %d (+%.1f%%, tolerance %.0f%%)",
				key, m.NsPerOp, w.NsPerOp,
				100*(float64(m.NsPerOp)/float64(w.NsPerOp)-1), 100*tol))
		}
		fmt.Fprintf(os.Stderr, "exec-gate: %s: %d ns/op vs committed %d (%+.1f%%) %s\n",
			key, m.NsPerOp, w.NsPerOp,
			100*(float64(m.NsPerOp)/float64(w.NsPerOp)-1), status)
	}
	if compared == 0 {
		return fmt.Errorf("exec-gate: no fresh measurement matched %s", gateFile)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "exec-gate: REGRESSION:", f)
		}
		return fmt.Errorf("exec-gate: %d of %d rows regressed beyond %.0f%%",
			len(failures), compared, 100*tol)
	}
	fmt.Fprintf(os.Stderr, "exec-gate: all %d rows within %.0f%% of %s\n",
		compared, 100*tol, gateFile)
	return nil
}

// runAutotuneReport runs the profile-guided block-size search on the
// benchmark kernels and prints the full evaluation trail per kernel:
// every candidate granularity with its measured wall time, realized
// critical path, stalls, and fused chains, then the
// before/after verdict. This is the -autotune mode without
// -exec-bench: a human-readable view of what the tuner saw.
func runAutotuneReport(sizes []int, workers int, budget int) error {
	cases, err := execBenchCases(sizes)
	if err != nil {
		return err
	}
	for _, c := range cases {
		res, err := autotune.Tune(c.p, autotune.Config{
			Workers: workers,
			Budget:  budget,
			Reps:    1,
		})
		if err != nil {
			return fmt.Errorf("autotune %s: %w", c.name, err)
		}
		fmt.Printf("%s (workers=%d):\n", c.name, workers)
		for _, s := range res.Samples {
			marker := " "
			if s.BlockIters == res.Chosen {
				marker = "*"
			}
			fmt.Printf(" %s block_iters=%-5d %12v  tasks=%-6d critical=%-12v stall=%-12v fused=%d\n",
				marker, s.BlockIters, s.Elapsed, s.Tasks,
				s.Critical, time.Duration(s.StallNs), s.ChainFused)
		}
		fmt.Printf("  chosen block_iters=%d after %d evals (converged=%v): %v -> %v (%.2fx)\n\n",
			res.Chosen, res.Evals, res.Converged,
			res.Baseline.Elapsed, res.Best.Elapsed, res.Speedup())
	}
	return nil
}
