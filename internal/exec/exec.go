// Package exec provides the three executors the evaluation compares
// (§6): the sequential reference, the cross-loop pipelined executor
// built from the detection → scheduling → code-generation pipeline,
// and a Polly-style baseline that parallelizes each loop nest on its
// own when the dependence analysis proves a loop dimension parallel.
// All executors run the same statement bodies; they differ only in
// schedule.
package exec

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/isl"
	"repro/internal/kernels"
	"repro/internal/runtime"
	"repro/internal/scop"
)

// Result reports one execution.
type Result struct {
	Executor      string
	Elapsed       time.Duration
	Hash          uint64
	Tasks         int   // chain tasks executed (0 for other executors)
	MaxConcurrent int   // peak simultaneously running tasks (pipeline only)
	ChainFused    int64 // edges resolved by chain order (pipeline only)
}

// Sequential runs the program nest by nest in lexicographic order and
// returns the wall time and result hash.
func Sequential(p *kernels.Program) Result {
	p.Reset()
	start := time.Now()
	RunSequential(p.SCoP)
	elapsed := time.Since(start)
	return Result{Executor: "sequential", Elapsed: elapsed, Hash: p.Hash()}
}

// RunSequential executes the SCoP's statements in program order, each
// domain in lexicographic order — the original program's semantics.
func RunSequential(sc *scop.SCoP) {
	for _, s := range sc.Stmts {
		body := s.Body
		for _, iv := range s.Domain.Elements() {
			body(iv)
		}
	}
}

// Pipelined detects the cross-loop pipeline pattern, compiles it to a
// task program, and runs it with the given number of workers.
func Pipelined(p *kernels.Program, workers int, opts core.Options) (Result, error) {
	info, err := core.Detect(p.SCoP, opts)
	if err != nil {
		return Result{}, fmt.Errorf("exec: detect: %w", err)
	}
	prog, err := codegen.CompileWithOptions(info, codegen.CompileOptions{MinBlockIters: opts.MinBlockIters})
	if err != nil {
		return Result{}, fmt.Errorf("exec: compile: %w", err)
	}
	return RunCompiled(p, prog, workers), nil
}

// RunCompiled executes an already-compiled task program on the unified
// runtime core, so callers can amortize detection/compilation across
// repetitions (it is compile-time work in the paper's setting). The
// program is lowered to the runtime IR on first use; the timed region
// covers execution only, matching how repeated runs reuse the IR.
func RunCompiled(p *kernels.Program, prog *codegen.TaskProgram, workers int) Result {
	ir := prog.Lower()
	p.Reset()
	start := time.Now()
	st := ir.Execute(workers, runtime.ExecOptions{})
	elapsed := time.Since(start)
	return Result{
		Executor:      "pipeline",
		Elapsed:       elapsed,
		Hash:          p.Hash(),
		Tasks:         st.Executed,
		MaxConcurrent: st.MaxConcurrent,
		ChainFused:    st.ChainFused,
	}
}

// ParLoop is the Polly baseline: each nest runs on its own, with the
// outermost provably-parallel loop dimension distributed over workers
// (and everything inside it sequential), or fully sequentially when no
// dimension is parallel. Nests never overlap with each other.
func ParLoop(p *kernels.Program, workers int) Result {
	g := deps.Analyze(p.SCoP)
	plan := make([][]bool, len(p.SCoP.Stmts))
	for i, s := range p.SCoP.Stmts {
		plan[i] = g.ParallelDims(s)
	}
	p.Reset()
	start := time.Now()
	for i, s := range p.SCoP.Stmts {
		runNestParallel(s, plan[i], workers)
	}
	elapsed := time.Since(start)
	return Result{Executor: "parloop", Elapsed: elapsed, Hash: p.Hash()}
}

// runNestParallel executes one statement with loop dimension d (the
// outermost parallel one) distributed across workers.
func runNestParallel(s *scop.Statement, par []bool, workers int) {
	d := -1
	for dim, ok := range par {
		if ok {
			d = dim
			break
		}
	}
	elems := s.Domain.Elements()
	if d < 0 || workers <= 1 {
		body := s.Body
		for _, iv := range elems {
			body(iv)
		}
		return
	}

	// Group iterations by the dims outer than d (run sequentially,
	// with a barrier per group) and within each group by the value of
	// dim d (slices run in parallel, each internally sequential).
	for start := 0; start < len(elems); {
		end := start
		prefix := elems[start][:d]
		for end < len(elems) && elems[end][:d].Eq(prefix) {
			end++
		}
		runSlicesParallel(s.Body, elems[start:end], d, workers)
		start = end
	}
}

// runSlicesParallel splits elems (which agree on dims < d) into
// contiguous runs with equal value at dim d and executes the runs on a
// worker pool.
func runSlicesParallel(body scop.Body, elems []isl.Vec, d, workers int) {
	var slices [][]isl.Vec
	for start := 0; start < len(elems); {
		end := start
		for end < len(elems) && elems[end][d] == elems[start][d] {
			end++
		}
		slices = append(slices, elems[start:end])
		start = end
	}
	ch := make(chan []isl.Vec, len(slices))
	for _, sl := range slices {
		ch <- sl
	}
	close(ch)
	var wg sync.WaitGroup
	n := workers
	if n > len(slices) {
		n = len(slices)
	}
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			for sl := range ch {
				for _, iv := range sl {
					body(iv)
				}
			}
		}()
	}
	wg.Wait()
}

// Verify runs the sequential reference and every listed executor and
// returns an error naming the first executor whose result hash
// differs.
func Verify(p *kernels.Program, workers int, opts core.Options) error {
	want := Sequential(p).Hash
	pipe, err := Pipelined(p, workers, opts)
	if err != nil {
		return err
	}
	if pipe.Hash != want {
		return fmt.Errorf("exec: pipeline result differs from sequential (%x vs %x)", pipe.Hash, want)
	}
	if got := ParLoop(p, workers).Hash; got != want {
		return fmt.Errorf("exec: parloop result differs from sequential (%x vs %x)", got, want)
	}
	return nil
}
