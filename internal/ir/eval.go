package ir

import (
	"fmt"
	"math"

	"repro/internal/interp"
	"repro/internal/isl"
)

// Evaluator executes a lowered program in process with exactly the
// semantics the emitted Go text implements: storage per the program's
// (possibly narrowed) layouts, seeding and hashing over the canonical
// box, bodies through the interp semantics seam. It is the reference
// the pass unit tests compare against interp.State — if an evaluator
// run of a transformed program hashes identically to interpretation,
// the transformation preserved the observable semantics.
type Evaluator struct {
	p     *Program
	data  [][]float64
	sinks map[string]int64
}

// NewEvaluator allocates storage for p.
func NewEvaluator(p *Program) *Evaluator {
	ev := &Evaluator{p: p, sinks: map[string]int64{}}
	for i := range p.Arrays {
		ev.data = append(ev.data, make([]float64, p.Arrays[i].StorageSize))
	}
	return ev
}

// boxEach walks the canonical box of a row-major, calling fn with the
// flat storage position and the running canonical position (the seed
// and hash ordinal).
func (ev *Evaluator) boxEach(ai int, fn func(storagePos, canonPos int)) {
	a := &ev.p.Arrays[ai]
	idx := make([]int, len(a.Extent))
	canon := 0
	var walk func(d int)
	walk = func(d int) {
		if d == len(a.Extent) {
			pos := 0
			for k, x := range idx {
				pos = pos*a.StorageExtent[k] + (a.Offset[k] + x - a.StorageOffset[k])
			}
			fn(pos, canon)
			canon++
			return
		}
		for x := 0; x < a.Extent[d]; x++ {
			idx[d] = x
			walk(d + 1)
		}
	}
	walk(0)
}

// Seed seeds every array (canonical order and values, interp parity)
// and clears the sinks. When reseed is true, seed-once arrays are
// skipped — the emitted program's behaviour between runs.
func (ev *Evaluator) Seed(reseed bool) {
	for name := range ev.sinks {
		ev.sinks[name] = 0
	}
	for i := range ev.p.Arrays {
		a := &ev.p.Arrays[i]
		if reseed && a.SeedOnce {
			continue
		}
		base := interp.SeedBase(a.Name)
		ev.boxEach(i, func(pos, canon int) {
			ev.data[i][pos] = interp.SeedValue(base, canon)
		})
	}
}

// Hash digests the canonical box of every array, then the sink
// accumulators in sorted statement order — the interp.State.Hash
// contract.
func (ev *Evaluator) Hash() uint64 {
	h := uint64(14695981039346656037)
	for i := range ev.p.Arrays {
		ev.boxEach(i, func(pos, _ int) {
			h ^= math.Float64bits(ev.data[i][pos])
			h *= 1099511628211
		})
	}
	for _, name := range ev.p.Sinks {
		h ^= uint64(ev.sinks[name])
		h *= 1099511628211
	}
	return h
}

// runBody executes one statement body at iteration iv.
func (ev *Evaluator) runBody(s *Stmt, iv isl.Vec) {
	acc := float64(interp.AccInit)
	v := 0.0
	for k := range s.Ops {
		op := &s.Ops[k]
		switch op.Kind {
		case OpAccInit:
			acc = interp.AccInit
		case OpRead:
			acc = interp.FoldRead(acc, ev.data[op.Array][ev.flat(op, iv)])
		case OpFinish:
			lin := 0
			for _, x := range iv {
				lin += x
			}
			v = interp.Finish(acc, lin)
		case OpWrite:
			ev.data[op.Array][ev.flat(op, iv)] = v
		case OpSink:
			ev.sinks[s.Name] += interp.SinkFold(v)
		}
	}
}

func (ev *Evaluator) flat(op *Op, iv isl.Vec) int {
	a := &ev.p.Arrays[op.Array]
	pos := 0
	for d, e := range op.Index {
		x := e.Eval(iv) - a.StorageOffset[d]
		if x < 0 || x >= a.StorageExtent[d] {
			panic(fmt.Sprintf("ir: access %s outside storage (dim %d: %d not in [0,%d))",
				a.Name, d, x, a.StorageExtent[d]))
		}
		pos = pos*a.StorageExtent[d] + x
	}
	return pos
}

// runTask executes one task, preferring its segments when the
// specialize pass computed them (so evaluator runs exercise exactly
// what the emitter emits).
func (ev *Evaluator) runTask(t *Task) {
	s := &ev.p.Stmts[t.Stmt]
	if t.Segs != nil {
		iv := make(isl.Vec, len(t.From))
		for _, seg := range t.Segs {
			copy(iv, seg.Start)
			d := len(iv) - 1
			for k := 0; k < seg.Len; k++ {
				if d >= 0 {
					iv[d] = seg.Start[d] + k
				}
				ev.runBody(s, iv)
			}
		}
		return
	}
	for _, iv := range ev.p.Members(&t.Unit) {
		ev.runBody(s, iv)
	}
}

// RunTasks executes every task in creation order — a legal schedule of
// the pipelined program.
func (ev *Evaluator) RunTasks() {
	for i := range ev.p.Tasks {
		ev.runTask(&ev.p.Tasks[i])
	}
}

// Run seeds, executes all tasks in creation order, and returns the
// state hash.
func (ev *Evaluator) Run() uint64 {
	ev.Seed(false)
	ev.RunTasks()
	return ev.Hash()
}

// RunTwice mimics the emitted main: seed, run, hash, re-seed (honoring
// seed-once), run again, hash — returning both hashes. Used to prove
// the narrow pass's seed-once elision is invisible.
func (ev *Evaluator) RunTwice() (first, second uint64) {
	ev.Seed(false)
	ev.RunTasks()
	first = ev.Hash()
	ev.Seed(true)
	ev.RunTasks()
	second = ev.Hash()
	return first, second
}
