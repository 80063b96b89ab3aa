package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/benchmark/internal/gen"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/exec"
	"repro/internal/kernels"
	rt "repro/internal/runtime"
	"repro/internal/schedtree"
	"repro/polypipe"
)

// execPass walks each exec member through the in-process chain one
// layer at a time — dependence analysis, detection (both backends),
// schedule tree, task compilation, lowering, execution at W workers, at
// one, and with the hybrid schedule, and the sequential reference —
// for the scenario's share of the run (at least three rounds). Each
// round also takes the same program through Session.Run untraced, so
// the layer sum can be held against the end-to-end number.
func execPass(t *tracer, sc gen.Scenario, sz gen.Scale, res *gen.Result) error {
	workers := runtime.GOMAXPROCS(0)
	progs := make([]*kernels.Program, len(sc.Exec))
	for i, m := range sc.Exec {
		progs[i] = m.Program(sc.Heavy)
	}
	deadline := time.Now().Add(time.Duration(sc.ExecShare * sz.Seconds * float64(time.Second)))
	op := 0
	for round := 0; round < sz.Reps(3, 1) || time.Now().Before(deadline); round++ {
		for _, p := range progs {
			op++
			name := p.Name

			// Untraced: what a Session user sees for compile + first run.
			sess := polypipe.NewSession()
			start := time.Now()
			first, err := sess.Run(polypipe.ModePipelined, p)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			wall := time.Since(start)
			t.add("e2e.compile_ms", name, gen.Ms(wall-first.Elapsed))
			t.add("e2e.compile_and_run_ms", name, gen.Ms(wall))
			_ = sess.Close()

			root := t.begin("exec.program", -1, op)
			t.time("deps.analyze_ms", name, root, op, func() { deps.Analyze(p.SCoP) })
			var info *core.Info
			t.time("core.detect_ms", name, root, op, func() { info, err = core.Detect(p.SCoP, core.Options{}) })
			if err != nil {
				return fmt.Errorf("%s: detect: %w", name, err)
			}
			t.time("core.detect_symbolic_ms", name, root, op, func() {
				_, err = core.Detect(p.SCoP, core.Options{Backend: core.BackendSymbolic, MinBlockIters: 1})
			})
			if err != nil {
				return fmt.Errorf("%s: symbolic detect: %w", name, err)
			}
			t.time("schedtree.build_ms", name, root, op, func() { schedtree.Build(info) })
			var tp *codegen.TaskProgram
			t.time("codegen.compile_ms", name, root, op, func() { tp, err = codegen.Compile(info) })
			if err != nil {
				return fmt.Errorf("%s: compile: %w", name, err)
			}
			var ir *rt.Program
			t.time("runtime.lower_ms", name, root, op, func() { ir = tp.BuildIR() })
			t.add("codegen.tasks", name, float64(tp.NumTasks()))
			t.add("runtime.edges", name, float64(ir.NumEdges()))

			var seq exec.Result
			t.time("exec.sequential_ms", name, root, op, func() { seq = exec.Sequential(p) })

			execute := func(metric string, w int, opts rt.ExecOptions) rt.ExecStats {
				p.Reset()
				var st rt.ExecStats
				t.time(metric, name, root, op, func() { st = ir.Execute(w, opts) })
				res.Op(st.Executed == ir.NumTasks() && p.Hash() == seq.Hash,
					"%s %s: ran %d of %d tasks, hash %x, want %x", name, metric, st.Executed, ir.NumTasks(), p.Hash(), seq.Hash)
				return st
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st := execute("runtime.execute_ms", workers, rt.ExecOptions{})
			runtime.ReadMemStats(&after)
			t.add("exec.alloc_mb_per_run", name, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			t.add("exec.mallocs_per_run", name, float64(after.Mallocs-before.Mallocs))
			t.add("runtime.max_concurrent", name, float64(st.MaxConcurrent))
			execute("runtime.execute_w1_ms", 1, rt.ExecOptions{})
			execute("runtime.execute_hybrid_ms", workers, rt.ExecOptions{Hybrid: true})
			t.end(root, name)
		}
	}

	for _, name := range []string{
		"deps.analyze_ms", "core.detect_ms", "core.detect_symbolic_ms", "schedtree.build_ms", "codegen.compile_ms",
		"runtime.lower_ms", "runtime.execute_ms", "runtime.execute_w1_ms", "runtime.execute_hybrid_ms", "exec.sequential_ms",
	} {
		res.Set(name, t.sum(name), "ms")
	}
	res.Set("codegen.tasks", t.sum("codegen.tasks"), "count")
	res.Set("runtime.edges", t.sum("runtime.edges"), "count")
	res.Set("runtime.max_concurrent", gen.Percentile(t.all("runtime.max_concurrent"), 100), "count")
	res.Set("runtime.per_task_us", 1000*t.sum("runtime.execute_ms")/t.sum("codegen.tasks"), "us")
	res.Set("exec.speedup", t.sum("exec.sequential_ms")/t.sum("runtime.execute_ms"), "ratio")
	res.Set("exec.alloc_mb_per_run", t.sum("exec.alloc_mb_per_run"), "MB")
	res.Set("exec.mallocs_per_run", t.sum("exec.mallocs_per_run"), "count")
	res.Set("e2e.compile_ms", t.sum("e2e.compile_ms"), "ms")
	return nil
}
