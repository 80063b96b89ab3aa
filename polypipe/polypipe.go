// Package polypipe is the public API of the cross-loop pipeline
// detection library — a pure-Go reproduction of "A Pipeline Pattern
// Detection Technique in Polly" (Talaashrafi, Doerfert, Moreno Maza,
// IMPACT 2022).
//
// The library detects pipeline patterns between consecutive for-loop
// nests of a static control program and executes them as dependent
// tasks, one chain of block tasks per statement, in process or as an
// emitted standalone Go program. Programs enter the
// system either through the scop builder (programmatic) or the small
// C-like DSL (textual); the full pipeline is
//
//	SCoP → Detect (pipeline/blocking/dependency maps, Algorithm 1)
//	     → schedule tree (Algorithm 2) → annotated AST (Figure 6)
//	     → task program → chain executor (or emitted Go program).
//
// Typical use:
//
//	prog := polypipe.Listing1(64)
//	s := polypipe.NewSession(polypipe.WithWorkers(4))
//	res, err := s.Run(polypipe.ModePipelined, prog)
//
// or, from DSL source:
//
//	sc, err := polypipe.Parse("mine", src)
//	info, err := polypipe.NewSession().Detect(sc)
//	fmt.Println(polypipe.TransformedAST("mine_pipelined", info))
package polypipe

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/isl/aff"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/schedtree"
	"repro/internal/scop"
)

// Re-exported core types: the facade is the supported import surface.
type (
	// SCoP is a static control program: consecutive loop nests with
	// affine accesses.
	SCoP = scop.SCoP
	// Builder assembles SCoPs programmatically.
	Builder = scop.Builder
	// Options tunes pipeline detection (ablations, and Workers — the
	// detection worker-pool width, 0 = GOMAXPROCS; results are
	// bit-identical across widths, see docs/PERFORMANCE.md) and, for
	// the plan, task granularity.
	Options = core.Options
	// Info is the detection result (pipeline maps, blocks, deps).
	Info = core.Info
	// Program couples a SCoP with runnable state (reset + hash).
	Program = kernels.Program
	// Result reports one execution (time, hash, task stats).
	Result = exec.Result
	// Variant selects the matrix-chain kernel flavour.
	Variant = kernels.Variant
)

// Matrix-chain variants (Figure 11 kernels).
const (
	MM   = kernels.MM
	MMT  = kernels.MMT
	GMM  = kernels.GMM
	GMMT = kernels.GMMT
)

// BackendSymbolic selects the symbolic (constraint-form) detection
// backend — closed-form pipeline/blocking/dependency maps whose cost is
// independent of domain size, with automatic fallback to the explicit
// path outside its fragment. Pass to WithBackend or Options.Backend.
const BackendSymbolic = core.BackendSymbolic

// NewBuilder starts a programmatic SCoP definition.
func NewBuilder(name string) *Builder { return scop.NewBuilder(name) }

// Parse parses DSL source (see package lang for the grammar) into an
// analysis-only SCoP.
func Parse(name, src string) (*SCoP, error) { return lang.Parse(name, src) }

// ParseWithParams parses DSL source with caller-supplied parameter
// bindings (overriding same-named `param` defaults in the source), so
// one program text instantiates at several sizes.
func ParseWithParams(name, src string, params map[string]int) (*SCoP, error) {
	return lang.ParseWithParams(name, src, params)
}

// Unparse renders a SCoP back to DSL source (the inverse of Parse for
// SCoPs with symbolic domains; bodies are dropped).
func Unparse(sc *SCoP) (string, error) { return lang.Unparse(sc) }

// MarshalSCoP serializes a SCoP's polyhedral description as JSON (the
// interchange format; bodies are not serialized).
func MarshalSCoP(sc *SCoP) ([]byte, error) { return scop.ToJSON(sc) }

// UnmarshalSCoP rebuilds an analysis-only SCoP from its JSON
// description.
func UnmarshalSCoP(data []byte) (*SCoP, error) { return scop.FromJSON(data) }

// ScheduleTree renders the Algorithm 2 schedule tree of a detection
// result.
func ScheduleTree(info *Info) string {
	return schedtree.String(schedtree.Build(info))
}

// TransformedAST renders the annotated AST of the transformed program
// (the Figure 6 artifact).
func TransformedAST(fnName string, info *Info) (string, error) {
	fn, err := ast.Generate(fnName, schedtree.Build(info))
	if err != nil {
		return "", err
	}
	return ast.Render(fn), nil
}

// PipelineReport renders a human-readable summary of the detection:
// pipeline maps per dependent pair and block/dependency counts per
// statement.
func PipelineReport(info *Info) string {
	var b strings.Builder
	b.WriteString("pipeline pairs:\n")
	for _, p := range info.Pairs {
		b.WriteString("  ")
		b.WriteString(p.Src.Name)
		b.WriteString(" -> ")
		b.WriteString(p.Dst.Name)
		b.WriteString(": ")
		if p.T.Card() <= 12 {
			b.WriteString(p.T.String())
		} else {
			b.WriteString(shortMapSummary(p))
		}
		b.WriteString("\n")
	}
	b.WriteString("statements:\n")
	for _, si := range info.Stmts {
		deps := make([]string, 0, len(si.InDeps))
		for _, d := range si.InDeps {
			deps = append(deps, d.Src.Name)
		}
		b.WriteString("  ")
		b.WriteString(si.Stmt.Name)
		b.WriteString(": ")
		b.WriteString(report2(len(si.Blocks), deps))
		b.WriteString("\n")
	}
	return b.String()
}

// shortMapSummary prints a large pipeline map symbolically when its
// closed form can be reconstructed (the paper's §4.1 presentation),
// falling back to a cardinality summary.
func shortMapSummary(p core.PipelinePair) string {
	if exprs, ok := aff.Recognize(p.T, 4, 8, 4); ok {
		parts := make([]string, len(exprs))
		for d, e := range exprs {
			parts[d] = fmt.Sprintf("o%d = %s", d, e)
		}
		return fmt.Sprintf("{ %s[i..] -> %s[o..] : %s } (%d pairs)",
			p.Src.Name, p.Dst.Name, strings.Join(parts, ", "), p.T.Card())
	}
	return "(" + p.T.Domain().Space().String() + " -> " +
		p.T.Range().Space().String() + ", " +
		strconv.Itoa(p.T.Card()) + " pairs)"
}

func report2(blocks int, deps []string) string {
	s := strconv.Itoa(blocks) + " blocks"
	if len(deps) == 0 {
		return s + ", no in-deps"
	}
	return s + ", in-deps on [" + strings.Join(deps, ", ") + "]"
}

// BlockReport renders the pipeline blocks of every statement: leaders,
// sizes, and block-level in-dependencies — the Eq. 2/3/4 structures
// made concrete. Intended for small programs; large statements are
// summarized.
func BlockReport(info *Info) string {
	var b strings.Builder
	for _, si := range info.Stmts {
		fmt.Fprintf(&b, "%s: %d blocks over %d iterations\n",
			si.Stmt.Name, len(si.Blocks), si.Stmt.Domain.Card())
		limit := len(si.Blocks)
		if limit > 12 {
			limit = 12
		}
		for i := 0; i < limit; i++ {
			blk := &si.Blocks[i]
			fmt.Fprintf(&b, "  block %v: %d iteration(s)", blk.Leader, blk.Len())
			for _, dep := range si.InDeps {
				if q := dep.To[i]; q >= 0 {
					fmt.Fprintf(&b, ", waits for %s%v", dep.Src.Name, info.Stmts[dep.Src.Index].Blocks[q].Leader)
				}
			}
			b.WriteString("\n")
		}
		if limit < len(si.Blocks) {
			fmt.Fprintf(&b, "  ... %d more blocks\n", len(si.Blocks)-limit)
		}
	}
	return b.String()
}

// Interpret wraps an analysis-only SCoP (e.g. one produced by Parse)
// into a runnable Program with deterministic synthetic statement
// bodies that read and write exactly the declared cells — an
// executable twin of the polyhedral description.
func Interpret(sc *SCoP) *Program { return interp.Programify(sc) }

// Workload constructors (the paper's evaluation programs).

// Listing1 builds the paper's motivating two-nest stencil (Listing 1).
func Listing1(n int) *Program { return kernels.Listing1(n) }

// Listing3 builds the three-nest extension (Listing 3).
func Listing3(n int) *Program { return kernels.Listing3(n) }

// Table9Program builds one of the P1–P10 compute-intensive programs.
func Table9Program(name string, n, size int) (*Program, error) {
	return kernels.Table9Program(name, n, size)
}

// MMChain builds an n-long matrix-multiplication chain kernel.
func MMChain(n, rows int, v Variant) *Program { return kernels.MMChain(n, rows, v) }
