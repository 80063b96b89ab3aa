// Package gogen is the textual back end of the AOT compiler: it
// prints a standalone, stdlib-only Go main package from the optimized
// block-program IR (internal/ir) — the analogue of the paper's final
// code-generation phase that rewrites the program to call the
// CreateTask runtime function (Figures 7–8).
//
// gogen itself performs no optimization and no analysis: detection
// (core.Detect), task compilation (codegen.CompileForEmission),
// lowering (ir.Lower), and the pass pipeline (ir.RunPasses) all happen
// before Print sees the program, and Print is a thin printer over the
// result. The emitted file contains the program's arrays (and sink
// accumulators), the statement bodies with the same deterministic
// synthetic semantics as package interp (the internal/interp seam),
// per-task execution code, the task DAG — embedded as CSR arrays built
// from the predecessors the IR takes from the chain program's
// in-dependency columns, whatever passes ran — a minimal tasking
// runtime, and a main function that runs the program sequentially and
// pipelined and compares the result hashes. Because the semantics
// match package interp bit for bit, the hash printed by the emitted
// binary can be validated against an in-process interpretation; the
// differential harness in this package does exactly that over the
// Table 9 + nmm corpus.
package gogen

import (
	"fmt"
	"io"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/obs"
)

// EmitOptions tunes compilation and emission.
type EmitOptions struct {
	// Workers is the worker count baked into the emitted main
	// (0 = GOMAXPROCS at emission); the emitted binary overrides it
	// with its first argument.
	Workers int
	// Passes selects the optimization pipeline: "" or "all" runs every
	// pass, "none" emits the unoptimized program, otherwise a
	// comma-separated subset of ir pass names.
	Passes string
	// MinBlockIters is the plan's task granularity (codegen).
	MinBlockIters int
	// Obs receives compile phases and ir.* pass metrics.
	Obs *obs.Recorder
}

// EmitWith compiles info with the passes opts selects and writes the
// emitted program. The input — in particular the SCoP and its
// statement bodies — is never modified.
func EmitWith(w io.Writer, info *core.Info, opts EmitOptions) error {
	p, err := Compile(info, opts)
	if err != nil {
		return err
	}
	return Print(w, p)
}

// Compile runs the middle of the backend — task compilation, IR
// lowering, and the selected passes — and returns the optimized
// program, ready for Print (or for inspection: pipelinec -dump-ir).
func Compile(info *core.Info, opts EmitOptions) (*ir.Program, error) {
	if len(info.Stmts) != len(info.SCoP.Stmts) {
		return nil, fmt.Errorf("gogen: incomplete detection info (%d of %d statements); pass the result of core.Detect",
			len(info.Stmts), len(info.SCoP.Stmts))
	}
	passes, err := ir.ParsePasses(opts.Passes)
	if err != nil {
		return nil, err
	}
	tp, err := codegen.CompileForEmission(info, codegen.CompileOptions{MinBlockIters: opts.MinBlockIters})
	if err != nil {
		return nil, err
	}
	iropt := ir.Options{Workers: opts.Workers, Obs: opts.Obs}
	p, err := ir.Lower(info, tp, iropt)
	if err != nil {
		return nil, err
	}
	ir.RunPasses(p, passes, iropt)
	return p, nil
}
