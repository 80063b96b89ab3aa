package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// yieldEvery is how many tasks a worker runs on one chain before it
// looks for a ready chain downstream to hand over to. Measured on the
// coarse chain plan (at most 64 tasks per chain, see codegen's
// maxChainTasks) at two workers on a 2-vCPU Xeon, with spinRounds =
// 1024, summing the fastest-quartile means of each member: light is
// the six t9_light members (P4/P7/P10, n = 32/64, interpreted bodies,
// 164 runs), heavy the three t9_heavy ones (n = 32, next_prime bodies,
// 60 runs), every policy interleaved run by run in one process.
//
//	policy                light      heavy
//	every task          2.35 ms   20.48 ms
//	every 4th task      2.00 ms   20.08 ms
//	every 8th task      1.96 ms   20.14 ms
//	every 16th task     1.90 ms   20.29 ms
//	every 32nd task     1.89 ms   20.83 ms
//	never yield         1.93 ms   22.53 ms  (P4 4.16 → 5.05 ms)
//
// Never yielding leaves the upstream chain on one worker for the whole
// run, and the other worker alone carries every chain it feeds. Any
// periodic hand-over balances that; beyond it a yield is only churn.
// With one task per block, every 32nd task was best; on chains of at
// most 64 tasks, every 16th is within 1 % of the best light reading,
// and over three sweeps it read 2–3 % faster than every 32nd on heavy.
const yieldEvery = 16

// spinRounds is how many claim scans an idle worker makes before it
// parks: a chain usually becomes ready within a task or two, sooner
// than a park and wake-up round trip. On the members and plan above,
// with yieldEvery = 16:
//
//	rounds     light      heavy
//	16       1.92 ms   19.81 ms
//	64       1.86 ms   19.70 ms
//	256      1.80 ms   19.68 ms
//	1024     1.73 ms   19.62 ms
//	4096     1.72 ms   19.61 ms
//
// A chain task now runs a run of blocks, so a worker waits longer for
// the next one than it did with one task per block, when 16 to 4096
// rounds measured within 5 % of one another; past 1024 rounds nothing
// more is gained.
const spinRounds = 1024

// chainState is one chain's progress during an execution. done counts
// the chain's finished tasks; only the worker holding the chain writes
// it, with an atomic store every other worker may read. The padding
// keeps two chains' counters off one cache line.
type chainState struct {
	done int32
	held atomic.Bool
	_    [56]byte
}

// run is the state of one execution of a Program.
type run struct {
	p     *Program
	state []chainState
	stats ExecStats

	left     atomic.Int32 // chains with tasks still to run
	held     atomic.Int64 // chains currently held by a worker
	maxHeld  atomic.Int64
	sleepers atomic.Int32
	mu       sync.Mutex
	cond     sync.Cond
	gen      uint64 // bumped under mu to wake the sleepers

	trace    func(Event)
	m        metrics
	observed bool        // trace or metrics on: time every task
	begin    time.Time   // start of the run, the ready time of roots
	endAt    []time.Time // end time of every finished task (observed only)
}

// Execute runs the program to completion on the given number of
// workers and returns the execution stats.
//
// With one worker the tasks run in id order — every predecessor has a
// smaller id, so that is a topological order, and for a codegen program
// it is statement order — with no atomics and no queue. With several, a
// worker claims a chain no other worker holds whose next task is ready
// (done[chain] > position for each of its predecessors), preferring the
// chain furthest downstream; runs that chain's tasks in order while
// they stay ready, publishing its counter after each; every yieldEvery
// tasks hands it over for a ready chain further downstream; and when no
// chain is ready spins briefly, then parks until a counter moves.
func (p *Program) Execute(workers int, opts ExecOptions) ExecStats {
	return p.execute(workers, opts).stats
}

func (p *Program) execute(workers int, opts ExecOptions) *run {
	if workers < 1 {
		panic(fmt.Sprintf("runtime: workers = %d", workers))
	}
	r := &run{p: p, state: make([]chainState, p.NumChains()), trace: opts.Trace}
	n := p.NumTasks()
	if n == 0 {
		return r
	}
	if opts.Reg != nil {
		r.m = newMetrics(opts.Reg, workers)
		r.m.submitted.Add(int64(n))
	}
	if opts.Trace != nil || opts.Reg != nil {
		r.observed = true
		r.endAt = make([]time.Time, n)
		r.begin = time.Now()
	}
	if opts.Trace != nil {
		p.nameTasks()
		for i := 0; i < n; i++ {
			opts.Trace(Event{Kind: EventSubmit, TaskID: i, Label: p.labels[i], Serial: p.Serial(i), Worker: -1, When: r.begin})
		}
	}
	live := 0
	for c := range r.state {
		if p.chainLen(c) > 0 {
			live++
		}
	}
	r.left.Store(int32(live))
	if r.m.queueDepth != nil {
		r.m.queuePeak.Max(r.m.queueDepth.Add(int64(live)))
	}
	if workers == 1 {
		for t := int32(0); int(t) < n; t++ {
			r.exec(0, t)
			c := p.chainOf[t]
			r.state[c].done++
			if r.state[c].done == p.chainLen(int(c)) {
				r.finish()
			}
		}
		r.stats = ExecStats{Executed: n, MaxConcurrent: 1, DepsResolved: int64(p.NumEdges())}
	} else {
		r.cond.L = &r.mu
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				t := r.worker(w)
				r.mu.Lock()
				r.stats.Executed += t.Executed
				r.stats.DepsResolved += t.DepsResolved
				r.mu.Unlock()
			}(w)
		}
		wg.Wait()
		r.stats.MaxConcurrent = int(r.maxHeld.Load())
	}
	// Every task but the first of its chain resolved its serial edge by
	// chain order alone.
	r.stats.ChainFused = int64(n - live)
	if r.m.deps != nil {
		r.m.deps.Add(r.stats.DepsResolved)
		r.m.chainFused.Add(r.stats.ChainFused)
	}
	return r
}

// worker claims chains and runs them until every chain is done,
// returning what it executed.
func (r *run) worker(w int) (tally ExecStats) {
	for {
		c := r.claim(-1)
		if c < 0 {
			if r.left.Load() == 0 {
				return tally
			}
			if c = r.await(); c < 0 {
				continue
			}
		}
		held := r.held.Add(1)
		for old := r.maxHeld.Load(); held > old; old = r.maxHeld.Load() {
			if r.maxHeld.CompareAndSwap(old, held) {
				break
			}
		}
		for c >= 0 {
			c = r.stretch(w, c, &tally)
		}
		r.held.Add(-1)
	}
}

// claim takes the furthest-downstream chain after chain `after` that no
// worker holds and whose next task is ready, or returns -1.
func (r *run) claim(after int) int {
	p := r.p
	for c := len(r.state) - 1; c > after; c-- {
		s := &r.state[c]
		if s.held.Load() {
			continue
		}
		pos := atomic.LoadInt32(&s.done)
		if pos == p.chainLen(c) || !r.ready(p.taskAt(int32(c), pos)) {
			continue
		}
		if s.held.CompareAndSwap(false, true) {
			return c
		}
	}
	return -1
}

// ready reports whether every predecessor of task t has finished.
func (r *run) ready(t int32) bool {
	p := r.p
	for k := p.predOff[t]; k < p.predOff[t+1]; k++ {
		if atomic.LoadInt32(&r.state[p.predChain[k]].done) <= p.predPos[k] {
			return false
		}
	}
	return true
}

// stretch runs the held chain c's tasks in order while the next one is
// ready, publishing c's counter after each, and then lets c go. Every
// yieldEvery tasks it hands c over for a ready chain downstream, which
// it returns already claimed; otherwise it returns -1.
func (r *run) stretch(w, c int, tally *ExecStats) int {
	p := r.p
	s := &r.state[c]
	n := p.chainLen(c)
	next := -1
	pos := atomic.LoadInt32(&s.done)
	for ran := 1; pos < n; ran++ {
		t := p.taskAt(int32(c), pos)
		if !r.ready(t) {
			break
		}
		r.exec(w, t)
		tally.Executed++
		tally.DepsResolved += int64(p.predOff[t+1] - p.predOff[t])
		pos++
		atomic.StoreInt32(&s.done, pos)
		if pos == n {
			r.finish()
		}
		r.wake()
		if ran%yieldEvery == 0 && pos < n {
			if next = r.claim(c); next >= 0 {
				break
			}
		}
	}
	s.held.Store(false)
	if next >= 0 {
		r.wake() // c may still be ready: a sleeper can take it over
	}
	return next
}

// finish counts one chain done.
func (r *run) finish() {
	r.left.Add(-1)
	if r.m.queueDepth != nil {
		r.m.queueDepth.Add(-1)
	}
}

// await spins on claim for a while, then parks until a counter moves,
// a chain is let go, or the run ends. It returns a claimed chain or -1.
// A sleeper registers before its last claim attempt and a publisher
// stores before it looks for sleepers, so one of the two always sees
// the other: a wake-up cannot be lost.
func (r *run) await() int {
	for i := 0; i < spinRounds; i++ {
		if c := r.claim(-1); c >= 0 || r.left.Load() == 0 {
			return c
		}
	}
	r.mu.Lock()
	gen := r.gen
	r.mu.Unlock()
	r.sleepers.Add(1)
	c := r.claim(-1)
	if c < 0 && r.left.Load() > 0 {
		r.mu.Lock()
		for r.gen == gen {
			r.cond.Wait()
		}
		r.mu.Unlock()
	}
	r.sleepers.Add(-1)
	return c
}

// wake rouses the parked workers, if there are any; publishing costs
// one load otherwise.
func (r *run) wake() {
	if r.sleepers.Load() == 0 {
		return
	}
	r.mu.Lock()
	r.gen++
	r.mu.Unlock()
	r.cond.Broadcast()
}

// exec runs task t's body on worker w and, when the run is observed,
// emits its ready/start/end events and updates the metrics. A task's
// ready time is when its last predecessor ended.
func (r *run) exec(w int, t int32) {
	p := r.p
	if !r.observed {
		p.run(int(t))
		return
	}
	ready := r.begin
	for k := p.predOff[t]; k < p.predOff[t+1]; k++ {
		if end := r.endAt[p.taskAt(p.predChain[k], p.predPos[k])]; end.After(ready) {
			ready = end
		}
	}
	start := time.Now()
	var label string
	serial := p.Serial(int(t))
	if r.trace != nil {
		label = p.labels[t]
		r.trace(Event{Kind: EventReady, TaskID: int(t), Label: label, Serial: serial, Worker: -1, When: ready})
		r.trace(Event{Kind: EventStart, TaskID: int(t), Label: label, Serial: serial, Worker: w, When: start})
	}
	if r.m.running != nil {
		r.m.peak.Max(r.m.running.Add(1))
		stall := start.Sub(ready).Nanoseconds()
		r.m.stallNs.Add(stall)
		r.m.stallHist.Observe(stall)
	}
	p.run(int(t))
	end := time.Now()
	r.endAt[t] = end
	if r.trace != nil {
		r.trace(Event{Kind: EventEnd, TaskID: int(t), Label: label, Serial: serial, Worker: w, When: end})
	}
	if r.m.running != nil {
		busy := end.Sub(start).Nanoseconds()
		r.m.running.Add(-1)
		r.m.executed.Inc()
		r.m.busyNs.Add(busy)
		r.m.taskHist.Observe(busy)
		r.m.workerBusy[w].Add(busy)
	}
}
