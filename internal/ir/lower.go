package ir

import (
	"fmt"
	"sort"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/isl"
	"repro/internal/par"
)

// Lower builds the block-program IR from a detection result and the
// compiled task program (codegen.CompileForEmission(info)). Lowering
// never touches the SCoP — in particular it never attaches statement
// bodies — and the returned program is independent of info except for
// shared immutable vectors.
func Lower(info *core.Info, tp *codegen.TaskProgram, opt Options) (*Program, error) {
	if len(info.Stmts) != len(info.SCoP.Stmts) {
		return nil, fmt.Errorf("ir: incomplete detection info (%d of %d statements); pass the result of core.Detect",
			len(info.Stmts), len(info.SCoP.Stmts))
	}
	stop := opt.Obs.Phase("ir.lower")
	defer stop()

	p := &Program{
		Name:       info.SCoP.Name,
		Workers:    par.Workers(opt.Workers),
		ArrayIndex: map[string]int{},
	}
	if err := lowerArrays(p, info); err != nil {
		return nil, err
	}
	if err := lowerStmts(p, info); err != nil {
		return nil, err
	}
	lowerTasks(p, tp)

	opt.Obs.SetGauge("ir.tasks", int64(len(p.Tasks)))
	opt.Obs.SetGauge("ir.edges", int64(p.NumEdges()))
	opt.Obs.SetGauge("ir.stmts", int64(len(p.Stmts)))
	opt.Obs.SetGauge("ir.arrays", int64(len(p.Arrays)))
	return p, nil
}

// lowerArrays computes the canonical accessed bounding box of every
// array (interp's allocation, the seed/hash contract) and the naive
// origin-anchored storage layout the narrow pass later shrinks.
func lowerArrays(p *Program, info *core.Info) error {
	sc := info.SCoP
	type bounds struct{ lo, hi []int }
	bs := map[string]*bounds{}
	written := map[string]bool{}
	consider := func(rel *isl.Map) {
		name := rel.OutSpace().Name
		b := bs[name]
		rel.Range().Foreach(func(idx isl.Vec) bool {
			if b == nil {
				b = &bounds{lo: idx.Clone(), hi: idx.Clone()}
				bs[name] = b
			}
			for d, x := range idx {
				if x < b.lo[d] {
					b.lo[d] = x
				}
				if x > b.hi[d] {
					b.hi[d] = x
				}
			}
			return true
		})
	}
	for _, s := range sc.Stmts {
		if s.Write != nil {
			consider(s.Write.Rel)
			written[s.Write.Array()] = true
		}
		for i := range s.Reads {
			consider(s.Reads[i].Rel)
		}
	}
	names := make([]string, 0, len(sc.Arrays))
	for name := range sc.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		arr := sc.Arrays[name]
		b := bs[name]
		accessed := b != nil
		if b == nil {
			// Declared but never accessed: a single canonical cell,
			// still seeded and hashed (interp parity).
			b = &bounds{lo: make([]int, arr.Dim), hi: make([]int, arr.Dim)}
		}
		a := Array{
			Name:     name,
			Offset:   b.lo,
			Accessed: accessed,
			Written:  written[name],
		}
		a.StorageSize = 1
		for d := range b.lo {
			a.Extent = append(a.Extent, b.hi[d]-b.lo[d]+1)
			// Naive storage: anchored at the origin, so subscripts
			// index directly without offset subtraction folded in.
			so := b.lo[d]
			if so > 0 {
				so = 0
			}
			a.StorageOffset = append(a.StorageOffset, so)
			a.StorageExtent = append(a.StorageExtent, b.hi[d]-so+1)
			a.StorageSize *= a.StorageExtent[d]
		}
		p.ArrayIndex[name] = len(p.Arrays)
		p.Arrays = append(p.Arrays, a)
	}
	return nil
}

// lowerStmts builds the typed op list of every statement body,
// implementing the interp synthetic semantics over the access
// relations' affine subscripts.
func lowerStmts(p *Program, info *core.Info) error {
	for _, s := range info.SCoP.Stmts {
		if s.Spec == nil {
			return fmt.Errorf("ir: statement %q has no symbolic domain", s.Name)
		}
		st := Stmt{
			Index:  s.Index,
			Name:   s.Name,
			Depth:  s.Depth(),
			Bounds: s.Spec.Bounds,
			Points: s.Domain.Elements(),
		}
		st.Ops = append(st.Ops, Op{Kind: OpAccInit})
		for i := range s.Reads {
			rd := &s.Reads[i]
			st.Ops = append(st.Ops, Op{
				Kind:  OpRead,
				Array: p.ArrayIndex[rd.Array()],
				Index: rd.Access.Exprs,
			})
		}
		st.Ops = append(st.Ops, Op{Kind: OpFinish})
		if s.Write != nil {
			st.Ops = append(st.Ops, Op{
				Kind:  OpWrite,
				Array: p.ArrayIndex[s.Write.Array()],
				Index: s.Write.Access.Exprs,
			})
		} else {
			st.Sink = true
			st.Ops = append(st.Ops, Op{Kind: OpSink})
			p.Sinks = append(p.Sinks, s.Name)
		}
		p.Stmts = append(p.Stmts, st)
	}
	sort.Strings(p.Sinks)
	return nil
}

// lowerTasks converts the chain program's tasks — one run of
// consecutive pipeline blocks each (codegen.ChainTasks) — into IR
// tasks, materializing the lexicographic From bound the same way the
// in-process block runners do: the leader of the block before the run,
// or a below-minimum sentinel for a statement's first run; To is the
// run's last leader. Each task's predecessors are read off the plan's
// columns (codegen.Columns), the ones the in-process executor runs,
// in their order: (chain, pos) is task chainOff[chain] + pos. They are
// capped subslices of one backing array, so an append copies them.
func lowerTasks(p *Program, tp *codegen.TaskProgram) {
	cols := tp.Columns()
	chainOff := make([]int32, len(cols.Lens)+1)
	for c, l := range cols.Lens {
		chainOff[c+1] = chainOff[c] + l
	}
	preds := make([]int32, len(cols.PredChain))
	for k, c := range cols.PredChain {
		preds[k] = chainOff[c] + cols.PredPos[k]
	}
	for i, run := range tp.ChainTasks() {
		si := tp.Stmts[run.Stmt]
		var from isl.Vec
		if run.First > 0 {
			from = si.Blocks[run.First-1].Leader
		} else {
			from = make(isl.Vec, si.Stmt.Depth())
			if min, ok := si.Stmt.Domain.Lexmin(); ok {
				copy(from, min)
				from[0] = min[0] - 1
			}
		}
		lo, hi := cols.PredOff[i], cols.PredOff[i+1]
		p.Tasks = append(p.Tasks, Task{
			Label: tp.Label(run),
			Unit: Unit{
				Stmt:  int(run.Stmt),
				From:  from,
				To:    si.Blocks[run.Last].Leader,
				First: si.Blocks[run.First].First,
				Last:  si.Blocks[run.Last].Last,
			},
			Preds: preds[lo:hi:hi],
		})
	}
}
