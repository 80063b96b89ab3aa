package runtime

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// buildChains builds the chain-major program with the given chain
// lengths: task i, at position pos of chain c, waits on data(i, c, pos)
// — (chain, position) pairs in earlier chains — and then on the task
// before it in its chain. run is every task's body; nil runs nothing.
func buildChains(lens []int, data func(i, c, pos int) [][2]int, run func(i int)) *Program {
	if run == nil {
		run = func(int) {}
	}
	spec := ChainSpec{PredOff: []int32{0}, Run: run}
	for c, l := range lens {
		spec.Lens = append(spec.Lens, int32(l))
		for pos := 0; pos < l; pos++ {
			var preds [][2]int
			if data != nil {
				preds = data(len(spec.PredOff)-1, c, pos)
			}
			if pos > 0 {
				preds = append(preds, [2]int{c, pos - 1})
			}
			for _, q := range preds {
				spec.PredChain = append(spec.PredChain, int32(q[0]))
				spec.PredPos = append(spec.PredPos, int32(q[1]))
			}
			spec.PredOff = append(spec.PredOff, int32(len(spec.PredChain)))
		}
	}
	return spec.Build()
}

// ExecuteChecked is Execute plus a post-run validation that every chain
// counter reached its chain's length, every task ran, and every
// dependency edge was resolved.
func (p *Program) ExecuteChecked(workers int, opts ExecOptions) (ExecStats, error) {
	r := p.execute(workers, opts)
	for c := range r.state {
		if got, want := r.state[c].done, p.chainLen(c); got != want {
			return r.stats, fmt.Errorf("runtime: chain %d stopped after %d of %d tasks", c, got, want)
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

// oneTaskChains builds n chains of one task each, task i waiting on
// task i−1 when dep is set, with body run.
func oneTaskChains(n int, dep bool, run func(i int)) *Program {
	lens := make([]int, n)
	for c := range lens {
		lens[c] = 1
	}
	return buildChains(lens, func(i, _, _ int) [][2]int {
		if !dep || i == 0 {
			return nil
		}
		return [][2]int{{i - 1, 0}}
	}, run)
}

// chainProgram builds n one-task chains, each waiting on the one
// before and appending its id to order.
func chainProgram(n int, order *[]int32) *Program {
	return oneTaskChains(n, true, func(i int) { *order = append(*order, int32(i)) })
}

// TestChainSpecEdgesAndSerial: a program built from chain columns
// reports its predecessors as task-id edges in column order, the cross
// edges without the serial ones, and each task's chain as its Serial
// key.
func TestChainSpecEdgesAndSerial(t *testing.T) {
	// Chains of 1, 2 and 1 tasks: (1, 0) waits on (0, 0), (1, 1) on
	// its serial predecessor, (2, 0) on (1, 1).
	p := buildChains([]int{1, 2, 1}, func(_, c, pos int) [][2]int {
		if c > 0 && pos == 0 {
			return [][2]int{{c - 1, c - 1}}
		}
		return nil
	}, nil)
	if p.NumTasks() != 4 || p.NumEdges() != 3 || p.NumChains() != 3 {
		t.Fatalf("NumTasks = %d, NumEdges = %d, NumChains = %d; want 4, 3, 3", p.NumTasks(), p.NumEdges(), p.NumChains())
	}
	all, cross := p.Edges()
	if got, want := fmt.Sprint(all), "[[0 1] [1 2] [2 3]]"; got != want {
		t.Fatalf("Edges all = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(cross), "[[0 1] [2 3]]"; got != want {
		t.Fatalf("Edges cross = %s, want %s", got, want)
	}
	for i, want := range []int{0, 1, 1, 2} {
		if got := p.Serial(i); got != want {
			t.Fatalf("Serial(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestExecuteSerialDeterministicOrder(t *testing.T) {
	var order []int32
	p := chainProgram(16, &order)
	st, err := p.ExecuteChecked(1, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 16 || st.MaxConcurrent != 1 {
		t.Fatalf("stats = %+v", st)
	}
	for i, id := range order {
		if int32(i) != id {
			t.Fatalf("order[%d] = %d", i, id)
		}
	}
}

func TestExecuteParallelChainOrdered(t *testing.T) {
	for run := 0; run < 20; run++ {
		var order []int32
		p := chainProgram(32, &order)
		st, err := p.ExecuteChecked(4, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Executed != 32 {
			t.Fatalf("executed = %d", st.Executed)
		}
		for i, id := range order {
			if int32(i) != id {
				t.Fatalf("run %d: order[%d] = %d", run, i, id)
			}
		}
	}
}

func TestExecuteIndependentTasksRunConcurrently(t *testing.T) {
	const n = 64
	var counter atomic.Int64
	p := oneTaskChains(n, false, func(int) { counter.Add(1) })
	st, err := p.ExecuteChecked(4, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if counter.Load() != n {
		t.Fatalf("counter = %d", counter.Load())
	}
	if st.Executed != n {
		t.Fatalf("executed = %d", st.Executed)
	}
}

func TestExecuteReusableAcrossRuns(t *testing.T) {
	var counter atomic.Int64
	p := oneTaskChains(8, true, func(int) { counter.Add(1) })
	for run := 0; run < 3; run++ {
		if _, err := p.ExecuteChecked(2, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if counter.Load() != 24 {
		t.Fatalf("counter = %d", counter.Load())
	}
}

func TestExecuteEmitsEventsAndMetrics(t *testing.T) {
	var order []int32
	p := chainProgram(6, &order)
	for _, workers := range []int{1, 3} {
		order = order[:0]
		reg := obs.NewRegistry()
		counts := map[EventKind]int{}
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		trace := func(e Event) {
			<-mu
			counts[e.Kind]++
			mu <- struct{}{}
		}
		if _, err := p.ExecuteChecked(workers, ExecOptions{Trace: trace, Reg: reg}); err != nil {
			t.Fatal(err)
		}
		for _, k := range []EventKind{EventSubmit, EventReady, EventStart, EventEnd} {
			if counts[k] != 6 {
				t.Fatalf("workers=%d: %v events = %d, want 6", workers, k, counts[k])
			}
		}
		snap := reg.Snapshot()
		if got := snap.Counters["runtime.executed"]; got != 6 {
			t.Fatalf("workers=%d: runtime.executed = %d", workers, got)
		}
		if got := snap.Counters["runtime.deps_resolved"]; got != 5 {
			t.Fatalf("workers=%d: runtime.deps_resolved = %d", workers, got)
		}
		if got := snap.Gauges["runtime.queue_depth"]; got != 0 {
			t.Fatalf("workers=%d: runtime.queue_depth = %d", workers, got)
		}
		if got := snap.Gauges["runtime.workers"]; got != int64(workers) {
			t.Fatalf("workers=%d: runtime.workers gauge = %d", workers, got)
		}
	}
}

func TestExecuteEmptyProgram(t *testing.T) {
	p := ChainSpec{PredOff: []int32{0}}.Build()
	st, err := p.ExecuteChecked(4, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 0 {
		t.Fatalf("executed = %d", st.Executed)
	}
}

func TestExecutePanicsOnBadWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	chainProgram(1, new([]int32)).Execute(0, ExecOptions{})
}
