package exec

import (
	"fmt"
	"io"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// Observation couples one pipelined execution with everything the
// observability layer measured about it: the ordinary Result, the
// worker count it ran on, the compile-side phase timings and counts,
// the span-level analysis (stall, utilization, overlap, Eq. 5/6
// aggregates), the realized critical path of the executed task DAG,
// its data-dependency edges (for trace export), and the full metrics
// snapshot.
type Observation struct {
	Result    Result
	Workers   int
	Phases    []obs.PhaseSpan
	Analysis  trace.Analysis
	Critical  trace.CriticalPath
	DataEdges [][2]int
	Snapshot  obs.Snapshot
	// StmtNames maps statement index to name, for trace export.
	StmtNames map[int]string
}

// PipelinedObserved is Pipelined with the full observability layer
// threaded through the stack: detection, codegen, and IR-lowering
// phases are timed into rec's phase list, the unified runtime core
// reports queue depth, stall, dependency counts, and per-worker busy
// time into rec's registry under the "runtime." prefix, a collector gathers
// per-task spans, and the executed DAG's critical path is computed.
// rec may be nil; a fresh recorder is created. workers ≤ 0 means
// GOMAXPROCS, as everywhere else in the stack.
func PipelinedObserved(p *kernels.Program, workers int, opts core.Options, rec *obs.Recorder) (*Observation, error) {
	if rec == nil {
		rec = obs.NewRecorder()
	}
	workers = par.Workers(workers)
	opts.Obs = rec

	stop := rec.Phase("detect")
	info, err := core.Detect(p.SCoP, opts)
	stop()
	if err != nil {
		return nil, fmt.Errorf("exec: detect: %w", err)
	}
	stop = rec.Phase("compile")
	prog, err := codegen.CompileWithOptions(info, codegen.CompileOptions{MinBlockIters: opts.MinBlockIters, Obs: rec})
	stop()
	if err != nil {
		return nil, fmt.Errorf("exec: compile: %w", err)
	}
	ir := prog.LowerObserved(rec)

	c := trace.NewCollector()
	c.SetRegistry(rec.Reg)
	p.Reset()

	stop = rec.Phase("execute")
	start := time.Now()
	st := ir.Execute(workers, runtime.ExecOptions{Trace: c.Hook(), Reg: rec.Reg})
	elapsed := time.Since(start)
	stop()

	o := &Observation{
		Result: Result{
			Executor:      "pipeline-observed",
			Elapsed:       elapsed,
			Hash:          p.Hash(),
			Tasks:         st.Executed,
			MaxConcurrent: st.MaxConcurrent,
			ChainFused:    st.ChainFused,
		},
		Workers:   workers,
		Analysis:  c.Analyze(),
		Phases:    rec.Phases.Spans(),
		Snapshot:  rec.Snapshot(),
		StmtNames: map[int]string{},
	}
	edges, data := ir.Edges()
	o.DataEdges = data
	o.Critical = trace.ComputeCriticalPath(o.Analysis.Spans, edges)
	for _, s := range p.SCoP.Stmts {
		o.StmtNames[s.Index] = s.Name
	}
	return o, nil
}

// WriteTraceJSON exports an observation's spans as Chrome/Perfetto
// trace_event JSON, with flow arrows along the data-dependency edges.
func (o *Observation) WriteTraceJSON(w io.Writer) error {
	return trace.WritePerfetto(w, o.Analysis.Spans, trace.PerfettoOptions{
		Names: o.StmtNames,
		Edges: o.DataEdges,
	})
}
