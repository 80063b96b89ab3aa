package simsched

import (
	"time"

	"repro/internal/codegen"
	"repro/internal/deps"
	"repro/internal/kernels"
)

// MeasureCompiled runs the compiled task program once sequentially (a
// valid topological order), measuring the cost of each of the paper's
// tasks, one per grain (the program's Grains), with their dependency
// DAG (its PrecedenceEdges), which the coarser chain program the
// runtime executes implies. Task i is the i-th grain. The
// returned tasks can be scheduled at several processor counts without
// re-measuring — required when comparing counts, since separate
// replays introduce measurement noise between them. The program state
// is left reset.
func MeasureCompiled(p *kernels.Program, prog *codegen.TaskProgram, overhead time.Duration) ([]Task, time.Duration) {
	p.Reset()
	grains := prog.Grains()
	tasks := make([]Task, 0, len(grains))
	var seq time.Duration
	for _, g := range grains {
		start := time.Now()
		for _, iv := range prog.Members(g) {
			prog.Stmts[g.Stmt].Stmt.Body(iv)
		}
		cost := time.Since(start)
		seq += cost
		tasks = append(tasks, Task{Cost: cost + overhead})
	}
	for _, e := range prog.PrecedenceEdges() {
		tasks[e[1]].Deps = append(tasks[e[1]].Deps, e[0])
	}
	p.Reset()
	return tasks, seq
}

// SimulateParLoop measures and simulates the Polly-style baseline in
// virtual time: each nest's outermost provably-parallel loop dimension
// is split into slices scheduled on procs processors, with barriers
// between sequential groups and between nests; fully serial nests are
// single tasks. Returns the sequential time and the schedule. The
// program state is left reset.
func SimulateParLoop(p *kernels.Program, procs int, overhead time.Duration) (time.Duration, Schedule) {
	g := deps.Analyze(p.SCoP)
	p.Reset()

	var tasks []Task
	var seq time.Duration
	// prevBarrier is the task every slice of the next group depends on.
	prevBarrier := -1

	for _, s := range p.SCoP.Stmts {
		par := g.ParallelDims(s)
		d := -1
		for dim, ok := range par {
			if ok {
				d = dim
				break
			}
		}
		elems := s.Domain.Elements()
		if d < 0 {
			// Serial nest: one task.
			start := time.Now()
			for _, iv := range elems {
				s.Body(iv)
			}
			cost := time.Since(start)
			seq += cost
			t := Task{Cost: cost + overhead}
			if prevBarrier >= 0 {
				t.Deps = append(t.Deps, prevBarrier)
			}
			tasks = append(tasks, t)
			prevBarrier = len(tasks) - 1
			continue
		}
		// Parallel at dimension d: groups of equal prefix (dims < d)
		// run in order with barriers; slices (equal value at d) within
		// a group are parallel tasks.
		for gs := 0; gs < len(elems); {
			ge := gs
			prefix := elems[gs][:d]
			for ge < len(elems) && elems[ge][:d].Eq(prefix) {
				ge++
			}
			var sliceIDs []int
			for ss := gs; ss < ge; {
				se := ss
				for se < ge && elems[se][d] == elems[ss][d] {
					se++
				}
				start := time.Now()
				for _, iv := range elems[ss:se] {
					s.Body(iv)
				}
				cost := time.Since(start)
				seq += cost
				t := Task{Cost: cost + overhead}
				if prevBarrier >= 0 {
					t.Deps = append(t.Deps, prevBarrier)
				}
				tasks = append(tasks, t)
				sliceIDs = append(sliceIDs, len(tasks)-1)
				ss = se
			}
			// Zero-cost barrier joining the group.
			tasks = append(tasks, Task{Cost: 0, Deps: sliceIDs})
			prevBarrier = len(tasks) - 1
			gs = ge
		}
	}
	p.Reset()
	return seq, List(tasks, procs)
}
