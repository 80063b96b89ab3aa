// Package ir is the mid-level block-program IR of the AOT compiler
// back end — the layer between detection/task compilation
// (core.Detect + codegen.CompileForEmission) and textual Go emission
// (internal/gogen), in the classic front end → IR → optimization
// passes → code generation shape.
//
// A Program carries, in typed form, everything the emitted standalone
// program needs:
//
//   - array layouts derived from the access relations (the canonical
//     accessed bounding box that seeding and hashing iterate — the
//     contract shared bit for bit with package interp — plus the
//     storage layout actually allocated, which the narrow pass shrinks
//     onto the canonical box);
//   - statement bodies as typed op lists (OpAccInit / OpRead /
//     OpFinish / OpWrite / OpSink) implementing the synthetic
//     semantics of internal/interp's seam (interp.FoldRead,
//     interp.Finish, ...);
//   - tasks exactly as the chain program the in-process executor runs
//     them: each task one run of consecutive pipeline blocks of one
//     statement, as the lexicographic interval (From ≺ iv ≼ To)
//     through the original loop bounds, the same interval as positions
//     of the statement's sorted points, and — after the specialize
//     pass — run-length segments that iterate only the run's own
//     points;
//   - the task DAG as each task's predecessor list, read off the
//     chain plan's columns (codegen.Columns: Eq. 4's in-dependency
//     columns plus the per-statement serial edges) that the in-process
//     program is built from, so no pass and no emitted program
//     resolves dependency addresses or changes the task granularity.
//
// Passes (see passes.go) transform the Program in place; the pass
// manager reports what each pass did through ir.* metrics on an
// obs.Recorder, so pipeline-stats can show the effect of every
// transformation.
package ir

import (
	"fmt"
	"strings"

	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/obs"
)

// Options tunes lowering and the pass pipeline.
type Options struct {
	// Workers is the worker count baked into the emitted main
	// (0 = GOMAXPROCS, resolved by par.Workers; the emitted binary can
	// override it with its first argument).
	Workers int
	// Obs, when non-nil, receives lowering phases and the ir.* pass
	// metrics.
	Obs *obs.Recorder
}

// Array is one array of the program with its two layouts. Offset and
// Extent describe the canonical box — the bounding box of every
// declared access, exactly interp's allocation — which seeding and
// hashing always iterate in row-major order so the emitted hash stays
// bit-identical to interp.State.Hash. StorageOffset/StorageExtent
// describe the cells the emitted program actually allocates: before
// narrowing a naive origin-anchored box (the canonical box widened to
// include the zero origin), afterwards the canonical box itself.
type Array struct {
	Name   string
	Offset []int
	Extent []int

	StorageOffset []int
	StorageExtent []int
	StorageSize   int

	// Accessed is false for declared-but-never-accessed arrays (a
	// single canonical cell, still seeded and hashed).
	Accessed bool
	// Written is false for read-only arrays.
	Written bool
	// SeedOnce marks arrays the emitted program seeds only at startup
	// (dead and read-only arrays: no run mutates them, so re-seeding
	// between the sequential and pipelined runs is redundant). Set by
	// the narrow pass.
	SeedOnce bool
}

// Size returns the canonical (hashed) cell count.
func (a *Array) Size() int {
	n := 1
	for _, e := range a.Extent {
		n *= e
	}
	return n
}

// Narrowed reports whether storage already equals the canonical box.
func (a *Array) Narrowed() bool {
	for d := range a.Extent {
		if a.StorageOffset[d] != a.Offset[d] || a.StorageExtent[d] != a.Extent[d] {
			return false
		}
	}
	return true
}

// OpKind enumerates the body op set.
type OpKind int

const (
	// OpAccInit starts the accumulator: acc = interp.AccInit.
	OpAccInit OpKind = iota
	// OpRead folds one array read: acc = interp.FoldRead(acc, cell).
	OpRead
	// OpFinish combines accumulator and coordinates:
	// v = interp.Finish(acc, Σ iv).
	OpFinish
	// OpWrite stores v into the written cell.
	OpWrite
	// OpSink folds v into the statement's sink accumulator:
	// sink += interp.SinkFold(v).
	OpSink
)

func (k OpKind) String() string {
	switch k {
	case OpAccInit:
		return "accinit"
	case OpRead:
		return "read"
	case OpFinish:
		return "finish"
	case OpWrite:
		return "write"
	case OpSink:
		return "sink"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one typed body operation. Array indexes Program.Arrays and
// Index holds the affine subscripts (OpRead and OpWrite only).
type Op struct {
	Kind  OpKind
	Array int
	Index []aff.Expr
}

// Stmt is one statement of the program: its loop bounds (over outer
// iterators, Hi exclusive) and its body as an op list.
type Stmt struct {
	Index  int
	Name   string
	Depth  int
	Bounds []aff.LoopBound
	Ops    []Op
	// Sink is true for statements without a write access (they
	// accumulate into a per-statement sink hashed after the arrays).
	Sink bool
	// Inline is set by the specialize pass: the emitter inlines the
	// body into the task loops instead of emitting a dispatch to a
	// per-statement function.
	Inline bool
	// Points is the statement's domain in lexicographic order (shared,
	// read-only); tasks address their members by position in it.
	Points []isl.Vec
}

// Seg is a run of consecutive innermost-dimension iterations: Start,
// Start+e_last, ..., Start+(Len-1)·e_last. Computed by the specialize
// pass so emitted tasks iterate exactly their own points instead of
// scanning the full domain behind a lexicographic guard.
type Seg struct {
	Start isl.Vec
	Len   int
}

// Unit is the iteration interval of one task: a run of consecutive
// pipeline blocks of one statement. From/To delimit the lexicographic
// interval (From ≺ iv ≼ To); its members are positions First..Last of
// the statement's Points (Program.Members); Segs, when non-nil, cover
// exactly the members as innermost-dimension runs.
type Unit struct {
	Stmt        int
	From, To    isl.Vec
	First, Last int32
	Segs        []Seg
}

// Iters returns the unit's iteration count.
func (u *Unit) Iters() int { return int(u.Last-u.First) + 1 }

// Members returns the unit's iteration vectors in execution order.
func (p *Program) Members(u *Unit) []isl.Vec {
	return p.Stmts[u.Stmt].Points[u.First : u.Last+1]
}

// Task is one task of the chain program: its iteration interval and
// the ids of the tasks it waits on, in the chain program's resolution
// order. Every predecessor id is smaller than the task's own, and a
// list holds no duplicates.
type Task struct {
	Label string
	Unit
	Preds []int32
}

// Program is the lowered block program.
type Program struct {
	Name    string
	Workers int
	Arrays  []Array
	Stmts   []Stmt
	Tasks   []Task
	// Applied lists the passes run on this program, in order.
	Applied []string

	// ArrayIndex maps array name to its position in Arrays.
	ArrayIndex map[string]int
	// Sinks lists sink statement names in sorted order (the hash
	// order, matching interp.State).
	Sinks []string
}

// NumEdges returns the dependency-edge count of the task DAG.
func (p *Program) NumEdges() int {
	n := 0
	for i := range p.Tasks {
		n += len(p.Tasks[i].Preds)
	}
	return n
}

// Dump writes a human-readable listing of the program (the -dump-ir
// output of pipelinec).
func (p *Program) Dump(w *strings.Builder) {
	fmt.Fprintf(w, "program %q workers=%d tasks=%d edges=%d stmts=%d arrays=%d\n",
		p.Name, p.Workers, len(p.Tasks), p.NumEdges(), len(p.Stmts), len(p.Arrays))
	if len(p.Applied) > 0 {
		fmt.Fprintf(w, "passes: %s\n", strings.Join(p.Applied, ", "))
	} else {
		fmt.Fprintf(w, "passes: (none)\n")
	}
	for i := range p.Arrays {
		a := &p.Arrays[i]
		flags := ""
		if !a.Accessed {
			flags += " dead"
		} else if !a.Written {
			flags += " readonly"
		}
		if a.SeedOnce {
			flags += " seed-once"
		}
		fmt.Fprintf(w, "array %s box=%v+%v storage=%v+%v (%d cells)%s\n",
			a.Name, a.Offset, a.Extent, a.StorageOffset, a.StorageExtent, a.StorageSize, flags)
	}
	for i := range p.Stmts {
		s := &p.Stmts[i]
		mode := "dispatch"
		if s.Inline {
			mode = "inline"
		}
		fmt.Fprintf(w, "stmt %s depth=%d %s\n", s.Name, s.Depth, mode)
		for _, op := range s.Ops {
			switch op.Kind {
			case OpRead, OpWrite:
				subs := make([]string, len(op.Index))
				for d, e := range op.Index {
					subs[d] = e.String()
				}
				fmt.Fprintf(w, "  %-7s %s[%s]\n", op.Kind, p.Arrays[op.Array].Name, strings.Join(subs, ", "))
			default:
				fmt.Fprintf(w, "  %s\n", op.Kind)
			}
		}
	}
	for i := range p.Tasks {
		t := &p.Tasks[i]
		seg := ""
		if t.Segs != nil {
			seg = fmt.Sprintf(" segs=%d", len(t.Segs))
		}
		fmt.Fprintf(w, "task %d %s %s (%v, %v] iters=%d%s preds=%v\n",
			i, t.Label, p.Stmts[t.Stmt].Name, t.From, t.To, t.Iters(), seg, t.Preds)
	}
}

// String returns the Dump listing.
func (p *Program) String() string {
	var b strings.Builder
	p.Dump(&b)
	return b.String()
}
