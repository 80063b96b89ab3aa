// Package autotune closes the feedback loop the observability layer
// opened: it executes a program's detected block pipeline under
// instrumentation, reads the realized critical path and the
// stall/queue-depth profile back out of internal/obs, scores
// the blocking, and re-compiles one detection result's chain plan at
// a different MinBlockIters granularity until the search converges on
// a per-kernel block size. The search is a doubling sweep to bracket
// the optimum followed by golden-section refinement on the bracketed integer
// interval; every candidate evaluation is memoized and verified
// bit-identical against the sequential reference.
//
// The paper's Eq. 3 blocking is the finest granularity; this
// package is the run-time answer to its §7 question of how coarse
// the blocks should be on a given host: fine blocking exposes
// parallelism but pays per-task scheduling overhead, coarse blocking
// amortizes overhead but lengthens the critical path. The measured
// crossover is the tuned block size.
package autotune

import (
	"fmt"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// DefaultBudget bounds the number of candidate evaluations when
// Config.Budget is zero.
const DefaultBudget = 12

// Sample is one evaluated candidate granularity with the profile the
// instrumented run measured: wall time (best of Config.Reps), the
// realized critical path of the executed DAG, and the runtime.*
// stall/queue-depth/chain-fusion readings.
type Sample struct {
	BlockIters int           `json:"block_iters"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	Tasks      int           `json:"tasks"`
	Edges      int           `json:"edges"`
	Critical   time.Duration `json:"critical_ns"`
	StallNs    int64         `json:"stall_ns"`
	ChainFused int64         `json:"chain_fused"`
	QueuePeak  int64         `json:"queue_peak"`
}

// Config tunes the search.
type Config struct {
	// Workers is the execution worker count candidates are scored at
	// (0 = GOMAXPROCS).
	Workers int
	// Detect is the base detection configuration; its MinBlockIters is
	// the search's starting granularity (0/1 = the pure Eq. 3
	// blocking) and Tune passes it to core.Detect.
	Detect core.Options
	// Budget caps candidate evaluations (0 = DefaultBudget).
	Budget int
	// Reps is the number of timed runs per candidate, best-of
	// (0 = 2).
	Reps int
	// MaxBlockIters caps the search (0 = the largest statement domain
	// cardinality, i.e. one block per statement).
	MaxBlockIters int
	// Obs, when non-nil, receives the autotune.iterations counter,
	// the autotune.block_iters_chosen gauge, and an "autotune" phase
	// span.
	Obs *obs.Recorder
}

// Result is the outcome of one tuning run.
type Result struct {
	// Chosen is the tuned MinBlockIters granularity.
	Chosen int `json:"chosen"`
	// Best is Chosen's sample.
	Best Sample `json:"best"`
	// Baseline is the starting granularity's sample (the fixed Eq. 3
	// blocking when Config.Detect.MinBlockIters was 0/1).
	Baseline Sample `json:"baseline"`
	// Samples lists every evaluation in search order.
	Samples []Sample `json:"samples"`
	// Evals counts candidate evaluations (== len(Samples)).
	Evals int `json:"evals"`
	// Converged reports the search closed its bracket before
	// exhausting the budget (as opposed to stopping on Budget).
	Converged bool `json:"converged"`
}

// Speedup returns the tuned blocking's wall-time improvement over
// the baseline blocking (1.0 = unchanged).
func (r *Result) Speedup() float64 {
	if r.Best.Elapsed <= 0 {
		return 1
	}
	return float64(r.Baseline.Elapsed) / float64(r.Best.Elapsed)
}

// Tune detects the program once under cfg.Detect, searches
// MinBlockIters and returns the tuned granularity with the full
// evaluation trail. The program must carry executable bodies; its
// arrays are reset before every run and left in the tuned run's final
// state.
func Tune(p *kernels.Program, cfg Config) (*Result, error) {
	defer cfg.Obs.Phase("autotune")()
	info, err := core.Detect(p.SCoP, cfg.Detect)
	if err != nil {
		return nil, fmt.Errorf("autotune: detect: %w", err)
	}
	return search(p, info, cfg)
}

// TuneDetected is Tune over info, a detection result of p the caller
// holds (a cached one, say); cfg.Detect supplies only MinBlockIters.
func TuneDetected(p *kernels.Program, info *core.Info, cfg Config) (*Result, error) {
	defer cfg.Obs.Phase("autotune")()
	return search(p, info, cfg)
}

// search is the search of Tune, every candidate compiled from info.
func search(p *kernels.Program, info *core.Info, cfg Config) (*Result, error) {
	workers := par.Workers(cfg.Workers)
	budget := cfg.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	reps := cfg.Reps
	if reps <= 0 {
		reps = 2
	}
	rec := cfg.Obs

	ceiling := cfg.MaxBlockIters
	if ceiling <= 0 {
		for _, s := range p.SCoP.Stmts {
			if c := s.Domain.Card(); c > ceiling {
				ceiling = c
			}
		}
	}
	if ceiling < 1 {
		ceiling = 1
	}

	// Every candidate must reproduce the sequential result exactly.
	want := exec.Sequential(p).Hash

	res := &Result{}
	memo := map[int]Sample{}
	// eval scores one granularity, memoized; ok is false once the
	// budget is spent.
	eval := func(b int) (s Sample, ok bool, err error) {
		if s, hit := memo[b]; hit {
			return s, true, nil
		}
		if res.Evals >= budget {
			return Sample{}, false, nil
		}
		res.Evals++
		rec.Count("autotune.iterations", 1)
		s, err = evaluate(p, info, b, workers, reps, want)
		if err != nil {
			return Sample{}, false, err
		}
		memo[b] = s
		res.Samples = append(res.Samples, s)
		return s, true, nil
	}

	base := cfg.Detect.MinBlockIters
	if base < 1 {
		base = 1
	}
	baseline, _, err := eval(base)
	if err != nil {
		return nil, err
	}
	res.Baseline = baseline
	best := baseline

	// Phase 1 — doubling sweep: coarsen until a rung measures worse
	// than the previous one (the optimum is bracketed), the blocking
	// collapses below the worker count (coarser can only serialize),
	// or the run already executes at its own realized critical path
	// (scheduling overhead is gone; coarser can only lengthen the
	// path).
	prev := baseline
	bracketed := false
	for b := base * 2; b <= ceiling; b *= 2 {
		s, ok, err := eval(b)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if s.Elapsed < best.Elapsed {
			best = s
		}
		if s.Elapsed > prev.Elapsed {
			bracketed = true
			break
		}
		if s.Tasks <= workers {
			bracketed = true
			break
		}
		if s.Critical > 0 && s.Elapsed <= s.Critical+s.Critical/20 {
			bracketed = true
			break
		}
		prev = s
	}

	// Phase 2 — golden-section refinement on the bracketing interval
	// around the doubling winner.
	lo, hi := best.BlockIters/2, best.BlockIters*2
	if lo < 1 {
		lo = 1
	}
	if hi > ceiling {
		hi = ceiling
	}
	const phi = 0.6180339887498949
	outOfBudget := false
	for hi-lo > 2 {
		step := int(phi*float64(hi-lo) + 0.5)
		x1, x2 := hi-step, lo+step
		if x1 < lo+1 {
			x1 = lo + 1
		}
		if x2 > hi-1 {
			x2 = hi - 1
		}
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		if x1 == x2 {
			x2++
		}
		s1, ok, err := eval(x1)
		if err != nil {
			return nil, err
		}
		if !ok {
			outOfBudget = true
			break
		}
		s2, ok, err := eval(x2)
		if err != nil {
			return nil, err
		}
		if !ok {
			outOfBudget = true
			break
		}
		if s1.Elapsed <= s2.Elapsed {
			hi = x2
			if s1.Elapsed < best.Elapsed {
				best = s1
			}
		} else {
			lo = x1
			if s2.Elapsed < best.Elapsed {
				best = s2
			}
		}
	}
	if hi-lo == 2 && !outOfBudget {
		if s, ok, err := eval(lo + 1); err != nil {
			return nil, err
		} else if ok && s.Elapsed < best.Elapsed {
			best = s
		}
	}
	res.Converged = bracketed && !outOfBudget || best.BlockIters == ceiling

	res.Best = best
	res.Chosen = best.BlockIters
	rec.SetGauge("autotune.block_iters_chosen", int64(res.Chosen))
	return res, nil
}

// evaluate compiles and lowers info at granularity b and times reps
// executions, keeping the best run's profile. Every run's result hash
// is checked against the sequential reference.
func evaluate(p *kernels.Program, info *core.Info, b, workers, reps int, want uint64) (Sample, error) {
	prog, err := codegen.CompileWithOptions(info, codegen.CompileOptions{MinBlockIters: b})
	if err != nil {
		return Sample{}, fmt.Errorf("autotune: compile at blockIters=%d: %w", b, err)
	}
	ir := prog.Lower()
	s := Sample{BlockIters: b, Tasks: ir.NumTasks(), Edges: ir.NumEdges()}
	edges, _ := ir.Edges()
	for r := 0; r < reps; r++ {
		reg := obs.NewRegistry()
		c := trace.NewCollector()
		c.SetRegistry(reg)
		p.Reset()
		start := time.Now()
		ir.Execute(workers, runtime.ExecOptions{Trace: c.Hook(), Reg: reg})
		elapsed := time.Since(start)
		if got := p.Hash(); got != want {
			return Sample{}, fmt.Errorf("autotune: blockIters=%d result hash %x differs from sequential %x", b, got, want)
		}
		if r > 0 && elapsed >= s.Elapsed {
			continue
		}
		s.Elapsed = elapsed
		an := c.Analyze()
		s.Critical = trace.ComputeCriticalPath(an.Spans, edges).Length
		snap := reg.Snapshot()
		s.StallNs = snap.Counter("runtime.stall_ns_total")
		s.ChainFused = snap.Counter("runtime.chain_fused")
		s.QueuePeak = snap.Gauge("runtime.queue_depth_peak")
	}
	return s, nil
}
