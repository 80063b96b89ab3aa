package runtime

import (
	"sync"

	"repro/internal/obs"
)

// ChainSpec describes a program by its chains, the one way to build
// one (codegen: one chain per statement, one task per run of its
// blocks). Task ids are chain-major — chain c holds ids base(c) ..
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

// Build returns the program the spec describes. The program reads the
// spec's slices and never writes them, so several programs may share
// one set of columns.
func (s ChainSpec) Build() *Program {
	n := len(s.PredOff) - 1
	p := &Program{
		run:       s.Run,
		labelOf:   s.Label,
		chainOff:  make([]int32, len(s.Lens)+1),
		chainOf:   make([]int32, n),
		predOff:   s.PredOff,
		predChain: s.PredChain,
		predPos:   s.PredPos,
	}
	for c, l := range s.Lens {
		p.chainOff[c+1] = p.chainOff[c] + l
		for i := p.chainOff[c]; i < p.chainOff[c+1]; i++ {
			p.chainOf[i] = int32(c)
		}
	}
	return p
}

// Program is a compiled task program laid out as chains: the tasks of
// one chain run strictly in order, so a chain's execution state is a
// single progress counter, and a task waits on its predecessors as
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

	chainOff []int32 // chain c's tasks are ids chainOff[c] .. chainOff[c+1]−1
	chainOf  []int32 // task → chain
	// Predecessor columns: task i waits on position predPos[k] of chain
	// predChain[k] for k in predOff[i]..predOff[i+1]−1, in resolution
	// order, its serial predecessor included.
	predOff, predChain, predPos []int32
}

// NumTasks returns the task count.
func (p *Program) NumTasks() int { return len(p.chainOf) }

// NumEdges returns the dependency-edge count.
func (p *Program) NumEdges() int { return len(p.predChain) }

// NumChains returns the number of chains.
func (p *Program) NumChains() int { return len(p.chainOff) - 1 }

// chainLen returns chain c's task count.
func (p *Program) chainLen(c int) int32 { return p.chainOff[c+1] - p.chainOff[c] }

// taskAt returns the id of the task at position pos of chain c.
func (p *Program) taskAt(c, pos int32) int32 { return p.chainOff[c] + pos }

// nameTasks fills in the labels ChainSpec.Label supplies, on the first
// call only.
func (p *Program) nameTasks() {
	p.nameOnce.Do(func() {
		p.labels = make([]string, p.NumTasks())
		if p.labelOf != nil {
			for i := range p.labels {
				p.labels[i] = p.labelOf(i)
			}
		}
	})
}

// Serial returns task i's serialization key: its chain.
func (p *Program) Serial(i int) int { return int(p.chainOf[i]) }

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
