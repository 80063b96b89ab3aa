package runtime

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// chainProgram builds out[i] depends on out[i-1] through addresses.
func chainProgram(n int, order *[]int32) *Program {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		i := int32(i)
		var in []int
		if i > 0 {
			in = []int{int(i) - 1}
		}
		b.Add(Task{
			Fn:     func() { *order = append(*order, i) },
			Out:    int(i),
			In:     in,
			Serial: NoSerial,
		})
	}
	return b.Build()
}

func TestBuilderResolvesWriterAndSerial(t *testing.T) {
	b := NewBuilder(4)
	b.Add(Task{Out: 10, Serial: NoSerial})                // 0
	b.Add(Task{Out: 11, In: []int{10, 10}, Serial: 0})    // 1: dep on 0, dup In deduped
	b.Add(Task{Out: 10, In: []int{11}, Serial: 0})        // 2: dep on 1 (writer + serial, deduped)
	b.Add(Task{Out: -1, In: []int{10}, Serial: NoSerial}) // 3: dep on 2 (latest writer of 10)
	p := b.Build()

	if p.NumTasks() != 4 {
		t.Fatalf("NumTasks = %d", p.NumTasks())
	}
	all, cross := p.Edges()
	if got, want := fmt.Sprint(all), "[[0 1] [1 2] [2 3]]"; got != want {
		t.Fatalf("Edges all = %s, want %s", got, want)
	}
	// 1 -> 2 is the serial edge inside chain 0; the other two cross
	// between chains.
	if got, want := fmt.Sprint(cross), "[[0 1] [2 3]]"; got != want {
		t.Fatalf("Edges cross = %s, want %s", got, want)
	}
	for i, want := range []int{NoSerial, 0, 0, NoSerial} {
		if got := p.Serial(i); got != want {
			t.Fatalf("Serial(%d) = %d, want %d", i, got, want)
		}
	}
	if p.NumEdges() != 3 || p.NumChains() != 3 {
		t.Fatalf("NumEdges = %d, NumChains = %d; want 3, 3", p.NumEdges(), p.NumChains())
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
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(Task{Fn: func() { counter.Add(1) }, Out: -1, Serial: NoSerial})
	}
	p := b.Build()
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
	b := NewBuilder(8)
	for i := 0; i < 8; i++ {
		b.Add(Task{Fn: func() { counter.Add(1) }, Out: i, In: []int{(i + 7) % 8}, Serial: NoSerial})
	}
	p := b.Build()
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
	p := NewBuilder(0).Build()
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
