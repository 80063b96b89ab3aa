package runtime

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Builder lowers a stream of tasks, added in program order, into a
// compiled Program: the §5.5 dependency addresses are resolved against
// the last-writer and last-serial tables exactly once, here, instead of
// on every run. Edges are deduplicated, so a task reading the same
// address through several access relations carries one edge. It is the
// general-DAG constructor; a lowering that already knows its chains
// fills a ChainSpec instead, and the tests hold the two equal.
type Builder struct {
	tasks      []Task
	preds      [][]int32
	lastWriter map[int]int32
	lastSerial map[int]int32
}

// NewBuilder returns a builder with capacity for n tasks.
func NewBuilder(n int) *Builder {
	return &Builder{
		tasks:      make([]Task, 0, n),
		preds:      make([][]int32, 0, n),
		lastWriter: make(map[int]int32),
		lastSerial: make(map[int]int32),
	}
}

// Add appends one task, resolving its In addresses and Serial key
// against the previously added tasks.
func (b *Builder) Add(t Task) {
	id := int32(len(b.tasks))
	var preds []int32
	addPred := func(p int32) {
		for _, q := range preds {
			if q == p {
				return
			}
		}
		preds = append(preds, p)
	}
	for _, addr := range t.In {
		if w, ok := b.lastWriter[addr]; ok {
			addPred(w)
		}
	}
	if t.Serial >= 0 {
		if p, ok := b.lastSerial[t.Serial]; ok {
			addPred(p)
		}
		b.lastSerial[t.Serial] = id
	}
	if t.Out >= 0 {
		b.lastWriter[t.Out] = id
	}
	b.tasks = append(b.tasks, t)
	b.preds = append(b.preds, preds)
}

// Build freezes the builder into an immutable Program: one chain per
// Serial key, in order of first use, and each NoSerial task a chain of
// its own. The builder must not be reused afterwards.
func (b *Builder) Build() *Program {
	n := len(b.tasks)
	fns := make([]func(), n)
	p := &Program{
		labels:  make([]string, n),
		chainOf: make([]int32, n),
		predOff: make([]int32, n+1),
		run: func(i int) {
			if fn := fns[i]; fn != nil {
				fn()
			}
		},
	}
	pos := make([]int32, n)
	var lens []int32
	chainOfKey := make(map[int]int32)
	for i, t := range b.tasks {
		fns[i] = t.Fn
		p.labels[i] = t.Label
		c, ok := chainOfKey[t.Serial]
		if !ok {
			c = int32(len(lens))
			lens = append(lens, 0)
			p.key = append(p.key, int32(t.Serial))
			if t.Serial >= 0 {
				chainOfKey[t.Serial] = c
			}
		}
		p.chainOf[i], pos[i] = c, lens[c]
		lens[c]++
		p.predOff[i+1] = p.predOff[i] + int32(len(b.preds[i]))
	}
	p.chainOff = offsets(lens)
	p.order = make([]int32, n)
	for i := range b.tasks {
		p.order[p.chainOff[p.chainOf[i]]+pos[i]] = int32(i)
	}
	p.predChain = make([]int32, 0, p.predOff[n])
	p.predPos = make([]int32, 0, p.predOff[n])
	for _, preds := range b.preds {
		for _, q := range preds {
			p.predChain = append(p.predChain, p.chainOf[q])
			p.predPos = append(p.predPos, pos[q])
		}
	}
	return p
}

// ChainSpec describes a program by its chains directly, for a lowering
// that knows them (codegen: one chain per statement, one task per
// block). Task ids are chain-major — chain c holds ids base(c) ..
// base(c)+Lens[c]−1, where base(c) is the sum of the earlier lengths —
// and chain c's Serial key is c. Task i's predecessors are position
// PredPos[k] of chain PredChain[k] for k in PredOff[i] .. PredOff[i+1]−1,
// its serial predecessor (c, pos−1) included; every predecessor must
// have a smaller id.
type ChainSpec struct {
	Lens               []int32
	PredOff            []int32
	PredChain, PredPos []int32
	// Run executes task i's body.
	Run func(i int)
	// Label names task i for traces. The program asks once, ahead of
	// its first traced execution, so a program that is never traced
	// formats no names.
	Label func(i int) string
}

// Build returns the program the spec describes. The program takes
// ownership of the spec's slices.
func (s ChainSpec) Build() *Program {
	n := len(s.PredOff) - 1
	p := &Program{
		run:       s.Run,
		labelOf:   s.Label,
		key:       make([]int32, len(s.Lens)),
		chainOff:  offsets(s.Lens),
		order:     make([]int32, n),
		chainOf:   make([]int32, n),
		predOff:   s.PredOff,
		predChain: s.PredChain,
		predPos:   s.PredPos,
	}
	for c := range s.Lens {
		p.key[c] = int32(c)
		for i := p.chainOff[c]; i < p.chainOff[c+1]; i++ {
			p.order[i], p.chainOf[i] = i, int32(c)
		}
	}
	return p
}

// offsets returns the prefix sums of lens, len(lens)+1 entries.
func offsets(lens []int32) []int32 {
	off := make([]int32, len(lens)+1)
	for c, l := range lens {
		off[c+1] = off[c] + l
	}
	return off
}

// Program is a compiled task program laid out as chains: the tasks of
// one Serial key run strictly in order, so a chain's execution state is
// a single progress counter, and a task waits on its predecessors as
// (chain, position) pairs — done[chain] > position — rather than on an
// indegree. A Program is immutable — every Execute keeps its counters
// privately — so one lowering can be reused across runs and executed
// concurrently.
type Program struct {
	run     func(i int)
	labels  []string
	labelOf func(i int) string // ChainSpec.Label
	// nameOnce guards filling labels from labelOf, at most once,
	// before anything reads them.
	nameOnce sync.Once

	chainOff []int32 // chain c's tasks are order[chainOff[c]:chainOff[c+1]]
	order    []int32 // task ids chain by chain, ascending within a chain
	chainOf  []int32 // task → chain
	key      []int32 // chain → Serial key (NoSerial for a one-task chain)
	// Predecessor columns: task i waits on position predPos[k] of chain
	// predChain[k] for k in predOff[i]..predOff[i+1]−1, in resolution
	// order, its serial predecessor included.
	predOff, predChain, predPos []int32
}

// NumTasks returns the task count.
func (p *Program) NumTasks() int { return len(p.chainOf) }

// NumEdges returns the dependency-edge count (after deduplication).
func (p *Program) NumEdges() int { return len(p.predChain) }

// NumChains returns the number of chains (Serial keys plus NoSerial
// tasks).
func (p *Program) NumChains() int { return len(p.key) }

// chainLen returns chain c's task count.
func (p *Program) chainLen(c int) int32 { return p.chainOff[c+1] - p.chainOff[c] }

// taskAt returns the id of the task at position pos of chain c.
func (p *Program) taskAt(c, pos int32) int32 { return p.order[p.chainOff[c]+pos] }

// Label returns task i's trace label.
func (p *Program) Label(i int) string {
	p.nameTasks()
	return p.labels[i]
}

// nameTasks fills in the labels ChainSpec.Label supplies, on the first
// call only; a Builder's per-task labels are already in place.
func (p *Program) nameTasks() {
	p.nameOnce.Do(func() {
		if p.labels != nil {
			return
		}
		p.labels = make([]string, p.NumTasks())
		for i := range p.labels {
			if p.labelOf != nil {
				p.labels[i] = p.labelOf(i)
			}
		}
	})
}

// Serial returns task i's serialization key (or NoSerial).
func (p *Program) Serial(i int) int { return int(p.key[p.chainOf[i]]) }

// Edges returns the dependency edges as (predecessor, task) id pairs,
// by task in resolution order: all of them, and cross, the ones between
// two chains — for a codegen program, the data dependencies without the
// serial ones.
func (p *Program) Edges() (all, cross [][2]int) {
	all = make([][2]int, 0, p.NumEdges())
	for i := range p.NumTasks() {
		for k := p.predOff[i]; k < p.predOff[i+1]; k++ {
			e := [2]int{int(p.taskAt(p.predChain[k], p.predPos[k])), i}
			all = append(all, e)
			if p.predChain[k] != p.chainOf[i] {
				cross = append(cross, e)
			}
		}
	}
	return all, cross
}

// ExecOptions tunes one execution of a compiled program.
type ExecOptions struct {
	// Trace, when non-nil, receives every task's lifecycle events:
	// submit, all up front, with Worker = -1; ready, with
	// Worker = -1 and When = the end of the task's last predecessor (or
	// the start of the run), just before its start; start and end with
	// the executing worker.
	Trace func(Event)
	// Reg, when non-nil, receives the runtime.* instrument catalogue
	// (docs/OBSERVABILITY.md): executed/deps_resolved/chain_fused
	// counters, queue_depth/running/peak_concurrency gauges, stall and
	// task-duration histograms, per-worker busy time.
	Reg *obs.Registry
	// Hybrid is ignored. It selected the inline-handoff variant of the
	// work-stealing executor the chain executor replaced, under which
	// every statement already runs its next block inline; the field
	// stays only until the repository benchmark stops setting it.
	Hybrid bool
}

// ExecStats reports one execution of a compiled program.
type ExecStats struct {
	Executed int
	// MaxConcurrent is the most chains workers held at once.
	MaxConcurrent int
	DepsResolved  int64
	// ChainFused counts the dependency edges resolved by chain order
	// alone — a task's serial edge to the task before it in its chain —
	// rather than by checking another chain's counter.
	ChainFused int64
}

// ExecuteChecked is Execute plus a post-run validation that every chain
// counter reached its chain's length, every task ran, and every
// dependency edge was resolved — the invariants the fuzzed-SCoP stress
// suite asserts.
func (p *Program) ExecuteChecked(workers int, opts ExecOptions) (ExecStats, error) {
	r := p.execute(workers, opts)
	for c := range r.state {
		if got, want := r.state[c].done, p.chainLen(c); got != want {
			return r.stats, fmt.Errorf("runtime: chain %d (serial %d) stopped after %d of %d tasks", c, p.key[c], got, want)
		}
	}
	if r.stats.Executed != p.NumTasks() {
		return r.stats, fmt.Errorf("runtime: executed %d of %d tasks", r.stats.Executed, p.NumTasks())
	}
	if want := int64(p.NumEdges()); r.stats.DepsResolved != want {
		return r.stats, fmt.Errorf("runtime: resolved %d of %d dependency edges", r.stats.DepsResolved, want)
	}
	return r.stats, nil
}
