package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Builder lowers a stream of tasks (submitted in program order, the
// same order a Layer sees them) into a compiled Program: the §5.5
// dependency addresses are resolved against the last-writer and
// last-serial tables exactly once, here, instead of on every submit of
// every run. Edges are deduplicated, so a task reading the same
// address through several access relations carries one edge.
type Builder struct {
	// Labels, when set before Build, names task i on demand in place
	// of Task.Label: the program asks once, ahead of its first traced
	// execution, so a program that is never traced formats no names.
	Labels func(i int) string

	tasks      []Task
	preds      [][]int32
	lastWriter map[int]int32
	lastSerial map[int]int32
	edges      int
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
	b.edges += len(preds)
}

// Build freezes the builder into an immutable Program. The builder
// must not be reused afterwards.
func (b *Builder) Build() *Program {
	n := len(b.tasks)
	p := &Program{
		fns:     make([]func(), n),
		labels:  make([]string, n),
		labelOf: b.Labels,
		serial:  make([]int32, n),
		indeg0:  make([]int32, n),
		succOff: make([]int32, n+1),
		predOff: make([]int32, n+1),
		succs:   make([]int32, 0, b.edges),
		preds:   make([]int32, 0, b.edges),
	}
	counts := make([]int32, n)
	for i, t := range b.tasks {
		p.fns[i] = t.Fn
		p.labels[i] = t.Label
		p.serial[i] = int32(t.Serial)
		p.indeg0[i] = int32(len(b.preds[i]))
		if p.indeg0[i] == 0 {
			p.roots = append(p.roots, int32(i))
		}
		for _, q := range b.preds[i] {
			counts[q]++
		}
	}
	for i := 0; i < n; i++ {
		p.succOff[i+1] = p.succOff[i] + counts[i]
	}
	fill := make([]int32, n)
	copy(fill, p.succOff[:n])
	p.succs = p.succs[:p.succOff[n]]
	for i := int32(0); int(i) < n; i++ {
		p.predOff[i+1] = p.predOff[i] + int32(len(b.preds[i]))
		p.preds = append(p.preds, b.preds[i]...)
		for _, q := range b.preds[i] {
			p.succs[fill[q]] = i
			fill[q]++
		}
	}
	return p
}

// Program is a compiled task program: flat arrays of task bodies with
// the dependency DAG in CSR form (successor and predecessor adjacency)
// and precomputed initial indegrees. A Program is immutable — every
// Execute runs against a private indegree copy — so one lowering can
// be reused across runs and executed concurrently.
type Program struct {
	fns     []func()
	labels  []string
	serial  []int32
	succOff []int32 // successor CSR offsets (len = NumTasks+1)
	succs   []int32
	predOff []int32 // predecessor CSR offsets (len = NumTasks+1)
	preds   []int32
	indeg0  []int32
	roots   []int32 // tasks with no predecessors, in creation order

	// labelOf is Builder.Labels; nameTasks copies its names into labels
	// at most once, before anything reads them.
	labelOf  func(i int) string
	nameOnce sync.Once

	// Static-chain classification (hybrid scheduling), computed at
	// most once by FuseChains and shared by every hybrid execution.
	chainOnce  sync.Once
	chainNext  []int32 // fused successor run inline after task i, or -1
	fusedIn    []bool  // task is entered via static handoff, not the queue
	fusedEdges int
}

// NumTasks returns the task count.
func (p *Program) NumTasks() int { return len(p.fns) }

// NumEdges returns the dependency-edge count (after deduplication).
func (p *Program) NumEdges() int { return len(p.succs) }

// Label returns task i's trace label.
func (p *Program) Label(i int) string {
	p.nameTasks()
	return p.labels[i]
}

// nameTasks fills in the labels a Builder.Labels function supplies, on
// the first call only; labels given per task are already in place.
func (p *Program) nameTasks() {
	p.nameOnce.Do(func() {
		if p.labelOf == nil {
			return
		}
		for i := range p.labels {
			p.labels[i] = p.labelOf(i)
		}
	})
}

// Serial returns task i's serialization key (or NoSerial).
func (p *Program) Serial(i int) int { return int(p.serial[i]) }

// SuccsOf returns the tasks depending on task i (shared storage; do
// not mutate).
func (p *Program) SuccsOf(i int) []int32 { return p.succs[p.succOff[i]:p.succOff[i+1]] }

// PredsOf returns the tasks task i depends on (shared storage; do not
// mutate). Every predecessor id is smaller than i.
func (p *Program) PredsOf(i int) []int32 { return p.preds[p.predOff[i]:p.predOff[i+1]] }

// Indegree0 returns task i's initial unfinished-predecessor count.
func (p *Program) Indegree0(i int) int { return int(p.indeg0[i]) }

// Roots returns the tasks with no predecessors, in creation order
// (shared storage; do not mutate).
func (p *Program) Roots() []int32 { return p.roots }

// ExecOptions tunes one execution of a compiled program.
type ExecOptions struct {
	// Trace, when non-nil, receives the same lifecycle events the
	// streaming scheduler emits (submit and ready with Worker = -1,
	// start and end with the executing worker).
	Trace func(Event)
	// Reg, when non-nil, receives the runtime.* instrument catalogue
	// (docs/OBSERVABILITY.md): executed/steal_count/deps_resolved
	// counters, queue_depth/running/peak_concurrency gauges, stall and
	// task-duration histograms, per-worker busy time.
	Reg *obs.Registry
	// Hybrid enables static/dynamic scheduling: FuseChains classifies
	// single-predecessor consumers and the executor runs each fused
	// consumer inline on the worker that finished its producer — no
	// ready-queue insertion, no atomic indegree decrement — while all
	// cross-chain edges stay on the work-stealing scheduler. Results
	// are bit-identical to the pure-dynamic mode; only the execution
	// order (and the runtime.chain_fused counter) differs.
	Hybrid bool
}

// ExecStats reports one execution of a compiled program.
type ExecStats struct {
	Executed      int
	MaxConcurrent int
	Steals        int64
	DepsResolved  int64
	// ChainFused counts dependency edges resolved by static handoff
	// instead of the ready queue (always 0 unless ExecOptions.Hybrid).
	ChainFused int64
}

// Execute runs the program to completion on the given number of
// workers and returns the execution stats. With one worker the
// execution is deterministic: ready tasks run in FIFO order, roots in
// creation order. With several, each worker owns a ready deque, a
// finished task's newly-ready successors land on the finishing
// worker's deque (atomic indegree decrement — no dependency table, no
// lock), and idle workers steal oldest-first from their peers.
func (p *Program) Execute(workers int, opts ExecOptions) ExecStats {
	if workers < 1 {
		panic(fmt.Sprintf("runtime: workers = %d", workers))
	}
	n := p.NumTasks()
	if n == 0 {
		return ExecStats{}
	}
	var m metrics
	if opts.Reg != nil {
		m = newMetrics(opts.Reg, "runtime", workers)
		m.submitted.Add(int64(n))
	}
	if opts.Trace != nil {
		p.nameTasks()
		now := time.Now()
		for i := 0; i < n; i++ {
			opts.Trace(Event{Kind: EventSubmit, TaskID: i, Label: p.labels[i], Serial: int(p.serial[i]), Worker: -1, When: now})
		}
	}
	if opts.Hybrid {
		p.FuseChains()
	}
	if workers == 1 {
		return p.executeSerial(opts, m)
	}
	e := &executor{
		p:       p,
		indeg:   append([]int32(nil), p.indeg0...),
		shards:  make([]deque32, workers),
		workers: workers,
		hybrid:  opts.Hybrid,
		trace:   opts.Trace,
		m:       m,
	}
	if e.trace != nil || opts.Reg != nil {
		e.readyAt = make([]time.Time, n)
	}
	e.cond = sync.NewCond(&e.mu)
	for _, r := range p.roots {
		e.markReady(0, r)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			e.worker(w)
		}(w)
	}
	wg.Wait()
	return ExecStats{
		Executed:      int(e.completed.Load()),
		MaxConcurrent: int(e.maxRun.Load()),
		Steals:        e.steals.Load(),
		DepsResolved:  e.deps.Load(),
		ChainFused:    e.fused.Load(),
	}
}

// ExecuteChecked is Execute plus a post-run validation that every
// indegree was driven to zero and every task ran — the invariant the
// fuzzed-SCoP stress suite asserts.
func (p *Program) ExecuteChecked(workers int, opts ExecOptions) (ExecStats, error) {
	st := p.Execute(workers, opts)
	if st.Executed != p.NumTasks() {
		return st, fmt.Errorf("runtime: executed %d of %d tasks", st.Executed, p.NumTasks())
	}
	want := int64(p.NumEdges())
	if st.DepsResolved != want {
		return st, fmt.Errorf("runtime: resolved %d of %d dependency edges", st.DepsResolved, want)
	}
	return st, nil
}

// executeSerial is the deterministic single-worker mode: an inline
// FIFO sweep over the ready set, no goroutines, no atomics. Under
// ExecOptions.Hybrid a finished task's fused successor runs next
// instead of joining the FIFO tail (depth-first along chains), so the
// order differs from the pure-dynamic sweep but the results do not.
func (p *Program) executeSerial(opts ExecOptions, m metrics) ExecStats {
	n := p.NumTasks()
	hybrid := opts.Hybrid && p.fusedEdges > 0
	indeg := append([]int32(nil), p.indeg0...)
	queue := make([]int32, 0, n)
	queue = append(queue, p.roots...)
	observed := m.queueDepth != nil
	var readyAt []time.Time
	if observed || opts.Trace != nil {
		readyAt = make([]time.Time, n)
		now := time.Now()
		for _, r := range p.roots {
			readyAt[r] = now
			if opts.Trace != nil {
				opts.Trace(Event{Kind: EventReady, TaskID: int(r), Label: p.labels[r], Serial: int(p.serial[r]), Worker: -1, When: now})
			}
		}
	}
	if observed {
		m.queuePeak.Max(m.queueDepth.Add(int64(len(queue))))
	}
	var deps, fused int64
	executed := 0
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		fromQueue := true
		for id >= 0 {
			var start time.Time
			if observed || opts.Trace != nil {
				start = time.Now()
			}
			if observed {
				if fromQueue {
					m.queueDepth.Add(-1)
				}
				m.running.Add(1)
				m.peak.Max(1)
				stall := start.Sub(readyAt[id]).Nanoseconds()
				m.stallNs.Add(stall)
				m.stallHist.Observe(stall)
			}
			if opts.Trace != nil {
				opts.Trace(Event{Kind: EventStart, TaskID: int(id), Label: p.labels[id], Serial: int(p.serial[id]), Worker: 0, When: start})
			}
			if fn := p.fns[id]; fn != nil {
				fn()
			}
			var end time.Time
			if observed || opts.Trace != nil {
				end = time.Now()
			}
			if opts.Trace != nil {
				opts.Trace(Event{Kind: EventEnd, TaskID: int(id), Label: p.labels[id], Serial: int(p.serial[id]), Worker: 0, When: end})
			}
			if observed {
				busy := end.Sub(start).Nanoseconds()
				m.running.Add(-1)
				m.executed.Inc()
				m.busyNs.Add(busy)
				m.taskHist.Observe(busy)
				m.workerBusy[0].Add(busy)
			}
			executed++
			next := int32(-1)
			if hybrid {
				next = p.chainNext[id]
			}
			for _, succ := range p.SuccsOf(int(id)) {
				deps++
				indeg[succ]--
				if indeg[succ] == 0 && succ != next {
					if readyAt != nil {
						readyAt[succ] = time.Now()
						if opts.Trace != nil {
							opts.Trace(Event{Kind: EventReady, TaskID: int(succ), Label: p.labels[succ], Serial: int(p.serial[succ]), Worker: -1, When: readyAt[succ]})
						}
					}
					if observed {
						m.queuePeak.Max(m.queueDepth.Add(1))
					}
					queue = append(queue, succ)
				}
			}
			if next >= 0 {
				fused++
				if m.chainFused != nil {
					m.chainFused.Inc()
				}
				if readyAt != nil {
					readyAt[next] = time.Now()
					if opts.Trace != nil {
						opts.Trace(Event{Kind: EventReady, TaskID: int(next), Label: p.labels[next], Serial: int(p.serial[next]), Worker: 0, When: readyAt[next]})
					}
				}
			}
			id = next
			fromQueue = false
		}
	}
	if m.deps != nil {
		m.deps.Add(deps)
	}
	mc := 0
	if executed > 0 {
		mc = 1
	}
	return ExecStats{Executed: executed, MaxConcurrent: mc, DepsResolved: deps, ChainFused: fused}
}

// deque32 is one worker's ready shard over task ids.
type deque32 struct {
	mu    sync.Mutex
	head  int
	items []int32
}

func (d *deque32) push(id int32) {
	d.mu.Lock()
	d.items = append(d.items, id)
	d.mu.Unlock()
}

func (d *deque32) popBack() (int32, bool) {
	d.mu.Lock()
	if d.head == len(d.items) {
		d.mu.Unlock()
		return 0, false
	}
	last := len(d.items) - 1
	id := d.items[last]
	d.items = d.items[:last]
	if d.head == len(d.items) {
		d.items, d.head = d.items[:0], 0
	}
	d.mu.Unlock()
	return id, true
}

func (d *deque32) popFront() (int32, bool) {
	d.mu.Lock()
	if d.head == len(d.items) {
		d.mu.Unlock()
		return 0, false
	}
	id := d.items[d.head]
	d.head++
	if d.head == len(d.items) {
		d.items, d.head = d.items[:0], 0
	}
	d.mu.Unlock()
	return id, true
}

// executor is the per-run state of one multi-worker execution: the
// private indegree copy, the sharded ready deques, and the sleep/wake
// machinery. The mutex guards only sleeping and the ready counter, so
// completions resolve dependencies with one atomic decrement each.
type executor struct {
	p       *Program
	indeg   []int32
	shards  []deque32
	workers int
	hybrid  bool

	mu    sync.Mutex
	cond  *sync.Cond
	ready atomic.Int64 // tasks currently sitting in shards

	completed atomic.Int64
	running   atomic.Int64
	maxRun    atomic.Int64
	steals    atomic.Int64
	deps      atomic.Int64
	fused     atomic.Int64

	trace   func(Event)
	m       metrics
	readyAt []time.Time
}

// markReady places a newly-ready task on worker w's shard and wakes a
// sleeper. The ready counter is incremented under the mutex so a
// worker checking it before sleeping cannot miss the wakeup.
func (e *executor) markReady(w int, id int32) {
	if e.readyAt != nil {
		now := time.Now()
		e.readyAt[id] = now
		if e.m.queueDepth != nil {
			e.m.queuePeak.Max(e.m.queueDepth.Add(1))
		}
		if e.trace != nil {
			e.trace(Event{Kind: EventReady, TaskID: int(id), Label: e.p.labels[id], Serial: int(e.p.serial[id]), Worker: -1, When: now})
		}
	}
	e.shards[w].push(id)
	e.mu.Lock()
	e.ready.Add(1)
	e.cond.Signal()
	e.mu.Unlock()
}

// take returns a ready task for worker w: own shard newest-first, then
// the peers' shards oldest-first (stealing).
func (e *executor) take(w int) (int32, bool) {
	if id, ok := e.shards[w].popBack(); ok {
		e.ready.Add(-1)
		return id, true
	}
	for k := 1; k < e.workers; k++ {
		if id, ok := e.shards[(w+k)%e.workers].popFront(); ok {
			e.ready.Add(-1)
			e.steals.Add(1)
			if e.m.steals != nil {
				e.m.steals.Inc()
			}
			return id, true
		}
	}
	return 0, false
}

func (e *executor) worker(w int) {
	n := int64(e.p.NumTasks())
	for {
		id, ok := e.take(w)
		if !ok {
			e.mu.Lock()
			for e.ready.Load() == 0 && e.completed.Load() < n {
				e.cond.Wait()
			}
			finished := e.completed.Load() >= n
			e.mu.Unlock()
			if finished {
				return
			}
			continue
		}
		fromQueue := true
		for {
			next := e.run(w, id, fromQueue)
			if e.completed.Add(1) == n {
				e.mu.Lock()
				e.cond.Broadcast()
				e.mu.Unlock()
				return
			}
			if next < 0 {
				break
			}
			// Static handoff: the fused successor runs on this worker
			// immediately, never visiting a deque.
			id, fromQueue = next, false
		}
	}
}

// run executes one task body and resolves its successors with atomic
// indegree decrements. Under hybrid scheduling it returns the task's
// fused successor (to run inline on this worker, its single
// dependency resolved by the handoff itself rather than an atomic),
// or -1 when the ready deques should be consulted next.
func (e *executor) run(w int, id int32, fromQueue bool) int32 {
	running := e.running.Add(1)
	for {
		old := e.maxRun.Load()
		if running <= old || e.maxRun.CompareAndSwap(old, running) {
			break
		}
	}
	observed := e.m.queueDepth != nil
	var start time.Time
	if observed || e.trace != nil {
		start = time.Now()
	}
	if observed {
		if fromQueue {
			e.m.queueDepth.Add(-1)
		}
		e.m.running.Add(1)
		e.m.peak.Max(e.maxRun.Load())
		stall := start.Sub(e.readyAt[id]).Nanoseconds()
		e.m.stallNs.Add(stall)
		e.m.stallHist.Observe(stall)
	}
	if e.trace != nil {
		e.trace(Event{Kind: EventStart, TaskID: int(id), Label: e.p.labels[id], Serial: int(e.p.serial[id]), Worker: w, When: start})
	}
	if fn := e.p.fns[id]; fn != nil {
		fn()
	}
	var end time.Time
	if observed || e.trace != nil {
		end = time.Now()
	}
	if e.trace != nil {
		e.trace(Event{Kind: EventEnd, TaskID: int(id), Label: e.p.labels[id], Serial: int(e.p.serial[id]), Worker: w, When: end})
	}
	if observed {
		busy := end.Sub(start).Nanoseconds()
		e.m.running.Add(-1)
		e.m.executed.Inc()
		e.m.busyNs.Add(busy)
		e.m.taskHist.Observe(busy)
		e.m.workerBusy[w].Add(busy)
	}
	e.running.Add(-1)

	next := int32(-1)
	if e.hybrid {
		next = e.p.chainNext[id]
	}
	resolved := int64(0)
	for _, succ := range e.p.SuccsOf(int(id)) {
		resolved++
		if succ == next {
			// The fused successor's only predecessor is this task: the
			// handoff is the resolution, no atomic needed.
			continue
		}
		if atomic.AddInt32(&e.indeg[succ], -1) == 0 {
			e.markReady(w, succ)
		}
	}
	if resolved > 0 {
		e.deps.Add(resolved)
		if e.m.deps != nil {
			e.m.deps.Add(resolved)
		}
	}
	if next >= 0 {
		e.fused.Add(1)
		if e.m.chainFused != nil {
			e.m.chainFused.Inc()
		}
		if e.readyAt != nil {
			now := time.Now()
			e.readyAt[next] = now
			if e.trace != nil {
				e.trace(Event{Kind: EventReady, TaskID: int(next), Label: e.p.labels[next], Serial: int(e.p.serial[next]), Worker: w, When: now})
			}
		}
	}
	return next
}
