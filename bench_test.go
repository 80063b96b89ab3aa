// Package repro_test holds the benchmark harness that regenerates
// every table and figure of the paper's evaluation (§6), plus ablation
// benches for the design choices DESIGN.md calls out.
//
// Two kinds of numbers are produced:
//
//   - wall-clock ns/op of the pipelined execution (ordinary testing.B
//     timing), and
//   - simulated speed-ups on the paper's processor counts, attached as
//     custom metrics (speedup/4w, polly, polly_8, ...) — deterministic
//     virtual-time results that reproduce the figures on any host,
//     including single-core machines (see internal/simsched).
//
// Regenerate everything with:
//
//	go test -bench . -benchmem
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/runtime"
	"repro/polypipe"
)

// benchOverhead models per-task scheduling cost in simulated
// schedules. It lies between BenchmarkTaskingOverhead's two readings at
// four workers on a 2-vCPU Xeon: ≈ 50 ns per task on one chain,
// ≈ 1.7 µs per task when every task is a chain of its own.
const benchOverhead = 500 * time.Nanosecond

// BenchmarkFigure10 regenerates the Figure 10 grid: for every Table 9
// program and (N, SIZE) configuration, the pipelined execution is
// timed, and the simulated 4-worker speed-up over sequential is
// attached as the "speedup/4w" metric — the number to compare with the
// paper's heat-map cell.
func BenchmarkFigure10(b *testing.B) {
	for _, spec := range kernels.Table9 {
		for _, cfg := range []struct{ n, size int }{{8, 2}, {12, 2}, {12, 4}} {
			name := fmt.Sprintf("%s/N=%d/SIZE=%d", spec.Name, cfg.n, cfg.size)
			b.Run(name, func(b *testing.B) {
				p := kernels.BuildTable9(spec, cfg.n, cfg.size)
				s := polypipe.NewSession(polypipe.WithWorkers(4))
				speedups, err := s.Simulate(p, polypipe.SimConfig{Procs: []int{4}, Overhead: benchOverhead})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := s.Run(polypipe.ModePipelined, p)
					if err != nil {
						b.Fatal(err)
					}
					_ = res
				}
				b.ReportMetric(speedups[0], "speedup/4w")
			})
		}
	}
}

// BenchmarkFigure11 regenerates the Figure 11 series: for each matrix
// chain kernel, the pipelined execution is timed and the simulated
// speed-ups of all three executors are attached as metrics
// (speedup/pipe on n workers, speedup/polly on n, speedup/polly8 on 8).
func BenchmarkFigure11(b *testing.B) {
	const rows = 96
	for _, n := range []int{2, 3, 4} {
		for _, v := range []polypipe.Variant{polypipe.MM, polypipe.MMT, polypipe.GMM, polypipe.GMMT} {
			p := polypipe.MMChain(n, rows, v)
			b.Run(p.Name, func(b *testing.B) {
				s := polypipe.NewSession(polypipe.WithWorkers(n))
				pipes, err := s.Simulate(p, polypipe.SimConfig{Procs: []int{n}, Overhead: benchOverhead})
				if err != nil {
					b.Fatal(err)
				}
				pollys, err := s.Simulate(p, polypipe.SimConfig{Mode: polypipe.ModeParLoop, Procs: []int{n, 8}, Overhead: benchOverhead})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Run(polypipe.ModePipelined, p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(pipes[0], "speedup/pipe")
				b.ReportMetric(pollys[0], "speedup/polly")
				b.ReportMetric(pollys[1], "speedup/polly8")
			})
		}
	}
}

// BenchmarkAblationBlocking compares the Eq. 3 optimal integrated
// blocking against the pairwise-only ablation on the fan-in-heavy
// programs the integration matters for (P5, P8 involve statements
// participating in several pipeline maps).
func BenchmarkAblationBlocking(b *testing.B) {
	for _, name := range []string{"P5", "P8"} {
		for _, mode := range []struct {
			label string
			opts  polypipe.Options
		}{
			{"optimal", polypipe.Options{}},
			{"pairwise", polypipe.Options{PairwiseBlocks: true}},
		} {
			b.Run(name+"/"+mode.label, func(b *testing.B) {
				p, err := polypipe.Table9Program(name, 12, 2)
				if err != nil {
					b.Fatal(err)
				}
				s := polypipe.NewSession(polypipe.WithWorkers(4), polypipe.WithOptions(mode.opts))
				speedups, err := s.Simulate(p, polypipe.SimConfig{Procs: []int{4}, Overhead: benchOverhead})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Run(polypipe.ModePipelined, p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(speedups[0], "speedup/4w")
			})
		}
	}
}

// BenchmarkAblationGranularity sweeps the task-granularity knob (§7):
// larger blocks amortize task overhead but reduce overlap. The
// simulated speed-up includes the per-task overhead, so the sweet spot
// is visible in the metric.
func BenchmarkAblationGranularity(b *testing.B) {
	for _, minIters := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("minIters=%d", minIters), func(b *testing.B) {
			p := polypipe.Listing1(64)
			opts := polypipe.Options{MinBlockIters: minIters}
			s := polypipe.NewSession(polypipe.WithWorkers(4), polypipe.WithOptions(opts))
			speedups, err := s.Simulate(p, polypipe.SimConfig{Procs: []int{4}, Overhead: 2 * time.Microsecond})
			if err != nil {
				b.Fatal(err)
			}
			info, err := s.Detect(p.SCoP)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := codegen.CompileWithOptions(info, codegen.CompileOptions{MinBlockIters: minIters})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(polypipe.ModePipelined, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(speedups[0], "speedup/4w")
			b.ReportMetric(float64(prog.NumTasks()), "tasks")
		})
	}
}

// overheadTasks is the size of the program BenchmarkTaskingOverhead
// executes once per op.
const overheadTasks = 1024

// BenchmarkTaskingOverhead measures the chain executor's per-task cost
// with empty bodies at four workers — the constant the granularity
// trade-off is against. The program is built from chain columns
// (runtime.ChainSpec) before the timer starts; each op executes it
// once, and ns/task divides the op by its task count. "independent"
// is one-task chains with no predecessors; "chained" is one chain, each
// task waiting on the one before it.
func BenchmarkTaskingOverhead(b *testing.B) {
	for _, chained := range []bool{false, true} {
		name, lens := "independent", make([]int32, overheadTasks)
		for c := range lens {
			lens[c] = 1
		}
		if chained {
			name, lens = "chained", []int32{overheadTasks}
		}
		b.Run(name, func(b *testing.B) {
			spec := runtime.ChainSpec{Lens: lens, PredOff: make([]int32, 1, overheadTasks+1), Run: func(int) {}}
			for i := 0; i < overheadTasks; i++ {
				if chained && i > 0 {
					spec.PredChain = append(spec.PredChain, 0)
					spec.PredPos = append(spec.PredPos, int32(i-1))
				}
				spec.PredOff = append(spec.PredOff, int32(len(spec.PredChain)))
			}
			p := spec.Build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Execute(4, runtime.ExecOptions{})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*overheadTasks), "ns/task")
		})
	}
}

// BenchmarkScaling sweeps the simulated worker count on a 4-stage
// serial Seidel chain: the pipeline's speed-up must grow with workers
// up to the chain length (4 overlappable nests) and flatten beyond —
// the Eq. 5 ceiling of §4.4.
func BenchmarkScaling(b *testing.B) {
	p := kernels.SeidelChain(24, 4)
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := polypipe.NewSession(polypipe.WithWorkers(workers))
			speedups, err := s.Simulate(p, polypipe.SimConfig{Procs: []int{workers}, Overhead: benchOverhead})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(polypipe.ModePipelined, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(speedups[0], "speedup")
		})
	}
}

// TestScalingCeiling asserts the Eq. 5 consequence: with more workers
// than overlappable nests, the simulated speed-up saturates near the
// nest count.
func TestScalingCeiling(t *testing.T) {
	p := kernels.SeidelChain(24, 4)
	// One measurement, several processor counts: no replay noise
	// between the points.
	s, err := polypipe.NewSession().Simulate(p, polypipe.SimConfig{Procs: []int{1, 4, 16}})
	if err != nil {
		t.Fatal(err)
	}
	s1, s4, s16 := s[0], s[1], s[2]
	if s4 > 4.2 || s16 > 4.2 {
		t.Errorf("speed-up exceeds the 4-nest ceiling: s4=%.2f s16=%.2f", s4, s16)
	}
	if s16 > s4*1.1 {
		t.Errorf("speed-up did not saturate: s4=%.2f s16=%.2f", s4, s16)
	}
	if s1 > 1.01 {
		t.Errorf("1-worker speed-up = %.2f, want ~1", s1)
	}
}

// BenchmarkExtraKernels reports simulated pipeline speed-ups on the
// kernels beyond the paper's two benchmark sets: the fully parallel
// Jacobi chain, the serial Seidel chain, and the triangular-domain
// chain.
func BenchmarkExtraKernels(b *testing.B) {
	progs := []*kernels.Program{
		kernels.JacobiChain(24, 3),
		kernels.SeidelChain(24, 3),
		kernels.TriangularChain(24),
	}
	for _, p := range progs {
		b.Run(p.Name, func(b *testing.B) {
			s := polypipe.NewSession(polypipe.WithWorkers(4))
			speedups, err := s.Simulate(p, polypipe.SimConfig{Procs: []int{4}, Overhead: benchOverhead})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(polypipe.ModePipelined, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(speedups[0], "speedup/pipe4")
		})
	}
}

// BenchmarkObservationOverhead quantifies the cost of the
// observability layer: the same Listing 3 program run plain
// (RunPipelined) and fully observed (Observe: registry metrics, event
// collection, and critical-path analysis). The observed ns/op should
// stay within a few percent of the plain one — the registry is sharded
// atomics and the collector is one small allocation per task.
func BenchmarkObservationOverhead(b *testing.B) {
	p := polypipe.Listing3(32)
	s := polypipe.NewSession(polypipe.WithWorkers(4))
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Run(polypipe.ModePipelined, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("observed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := polypipe.Observe(p, 4, polypipe.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDetect measures the compile-time cost of Algorithm 1 — the
// analysis the paper runs inside Polly.
func BenchmarkDetect(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("listing3/N=%d", n), func(b *testing.B) {
			p := polypipe.Listing3(n)
			s := polypipe.NewSession() // no cache: every Detect runs Algorithm 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Detect(p.SCoP); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile splits the compile path the repository benchmark
// reports as compile_ms (a fresh Session's first pipelined run, minus
// the run) into its layers on the t9_light members: Algorithm 1, task
// generation from the detected blocks, and lowering to the runtime IR.
// Each should grow with the block and point counts — ~4× per doubling
// of n — and no faster.
func BenchmarkCompile(b *testing.B) {
	for _, name := range []string{"P4", "P7", "P10"} {
		spec, _ := kernels.T9SpecByName(name)
		for _, n := range []int{32, 64} {
			p := kernels.BuildTable9(spec, n, 1)
			info, err := core.Detect(p.SCoP, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			prog, err := codegen.Compile(info)
			if err != nil {
				b.Fatal(err)
			}
			layers := []struct {
				name string
				fn   func()
			}{
				{"detect", func() { _, _ = core.Detect(p.SCoP, core.Options{}) }},
				{"codegen", func() { _, _ = codegen.Compile(info) }},
				{"lower", func() { prog.BuildIR() }},
			}
			for _, l := range layers {
				b.Run(fmt.Sprintf("%s/N=%d/%s", name, n, l.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						l.fn()
					}
				})
			}
		}
	}
}

// BenchmarkExecute times the compiled runtime IR's execution on the
// t9_light members (light bodies, so the executor does the work) at one
// and two workers: the runtime.execute_w1_ms and runtime.execute_ms
// layers of the repository benchmark. Every run is checked against the
// sequential hash.
func BenchmarkExecute(b *testing.B) {
	for _, name := range []string{"P4", "P7", "P10"} {
		spec, _ := kernels.T9SpecByName(name)
		for _, n := range []int{32, 64} {
			p := interp.Programify(kernels.BuildTable9(spec, n, 1).SCoP)
			info, err := core.Detect(p.SCoP, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			prog, err := codegen.Compile(info)
			if err != nil {
				b.Fatal(err)
			}
			p.Reset()
			for _, s := range p.SCoP.Stmts {
				for _, iv := range s.Domain.Elements() {
					s.Body(iv)
				}
			}
			want := p.Hash()
			ir := prog.Lower()
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/N=%d/W=%d", name, n, workers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						p.Reset()
						ir.Execute(workers, runtime.ExecOptions{})
					}
					if p.Hash() != want {
						b.Fatal("pipelined hash differs from sequential")
					}
				})
			}
		}
	}
}

// TestAblationCorrectness guards the ablation configurations: both
// must still produce bit-identical results to sequential execution.
func TestAblationCorrectness(t *testing.T) {
	p := polypipe.Listing3(16)
	for _, opts := range []polypipe.Options{
		{PairwiseBlocks: true},
		{MinBlockIters: 16},
		{PairwiseBlocks: true, MinBlockIters: 8},
	} {
		s := polypipe.NewSession(polypipe.WithWorkers(4), polypipe.WithOptions(opts))
		if err := s.Verify(p); err != nil {
			t.Errorf("opts %+v: %v", opts, err)
		}
	}
}

// TestFigureShapesHold asserts the headline qualitative claims of the
// evaluation in simulated time, so regressions in the transformation
// or runtime surface as test failures, not just changed numbers:
//
//   - every Table 9 program gains from cross-loop pipelining (Fig 10);
//   - gmm chains: pipeline ≥ 1.5×, Polly ≈ 1× (Fig 11, right half);
//   - mm chains: polly_8 beats the pipeline (Fig 11, left half).
func TestFigureShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("figure shapes need real per-task cost measurements")
	}
	// Measurement-based shapes are retried: a loaded host (e.g. the
	// benchmark suite running concurrently) distorts per-task cost
	// measurements transiently.
	retry := func(name string, check func() error) {
		var err error
		for i := 0; i < 3; i++ {
			if err = check(); err == nil {
				return
			}
		}
		t.Errorf("%s: %v", name, err)
	}
	for _, spec := range kernels.Table9 {
		spec := spec
		retry(spec.Name, func() error {
			p := kernels.BuildTable9(spec, 12, 2)
			speedups, err := polypipe.NewSession(polypipe.WithWorkers(4)).
				Simulate(p, polypipe.SimConfig{Procs: []int{4}, Overhead: benchOverhead})
			if err != nil {
				return err
			}
			if speedups[0] < 1.1 {
				return fmt.Errorf("simulated speedup %.2f, expected a gain (Figure 10 shape)", speedups[0])
			}
			return nil
		})
	}

	retry("3gmm", func() error {
		gmm := polypipe.MMChain(3, 96, polypipe.GMM)
		s := polypipe.NewSession(polypipe.WithWorkers(3))
		pipes, err := s.Simulate(gmm, polypipe.SimConfig{Procs: []int{3}, Overhead: benchOverhead})
		if err != nil {
			return err
		}
		pollys, err := s.Simulate(gmm, polypipe.SimConfig{Mode: polypipe.ModeParLoop, Procs: []int{3}, Overhead: benchOverhead})
		if err != nil {
			return err
		}
		if pipes[0] < 1.5 {
			return fmt.Errorf("pipeline simulated speedup = %.2f, want >= 1.5", pipes[0])
		}
		if pollys[0] > 1.1 {
			return fmt.Errorf("polly simulated speedup = %.2f, want ~1", pollys[0])
		}
		return nil
	})

	retry("3mm", func() error {
		mm := polypipe.MMChain(3, 96, polypipe.MM)
		s := polypipe.NewSession(polypipe.WithWorkers(3))
		pipes, err := s.Simulate(mm, polypipe.SimConfig{Procs: []int{3}, Overhead: benchOverhead})
		if err != nil {
			return err
		}
		pollys, err := s.Simulate(mm, polypipe.SimConfig{Mode: polypipe.ModeParLoop, Procs: []int{8}, Overhead: benchOverhead})
		if err != nil {
			return err
		}
		if pollys[0] <= pipes[0] {
			return fmt.Errorf("polly_8 (%.2f) should beat pipeline (%.2f)", pollys[0], pipes[0])
		}
		return nil
	})
}
