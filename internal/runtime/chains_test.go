package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// serialChain builds n tasks under one Serial key, each appending its
// id to order: a single chain.
func serialChain(n int, order *[]int32) *Program {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		i := int32(i)
		b.Add(Task{Fn: func() { *order = append(*order, i) }, Out: -1, Serial: 0})
	}
	return b.Build()
}

// TestHybridExecuteLinearChain runs one chain — static order within a
// statement, the schedule's static half — at several worker counts:
// the tasks run in order, every edge is resolved by chain order, and
// nothing is stolen.
func TestHybridExecuteLinearChain(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var order []int32
		p := serialChain(24, &order)
		if p.NumChains() != 1 || p.NumEdges() != 23 {
			t.Fatalf("chains = %d, edges = %d, want 1 and 23", p.NumChains(), p.NumEdges())
		}
		st, err := p.ExecuteChecked(workers, ExecOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.ChainFused != 23 || st.MaxConcurrent != 1 {
			t.Fatalf("workers=%d: stats = %+v", workers, st)
		}
		for i, id := range order {
			if int32(i) != id {
				t.Fatalf("workers=%d: order[%d] = %d", workers, i, id)
			}
		}
	}
}

// randomDAG builds a seeded random dependency DAG whose task bodies
// compute cells[i] from the task's predecessors' cells — any
// scheduling that respects the edges yields bit-identical floats.
// noSerial is the share (of 4) of tasks without a Serial key.
func randomDAG(rng *rand.Rand, n, noSerial int, cells []float64) *Program {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		i := i
		var in []int
		for _, k := range rng.Perm(i) {
			if len(in) == 3 {
				break
			}
			if rng.Intn(3) == 0 {
				in = append(in, k)
			}
		}
		deps := append([]int(nil), in...)
		serial := NoSerial
		if rng.Intn(4) >= noSerial {
			serial = rng.Intn(4)
		}
		b.Add(Task{
			Fn: func() {
				v := 1.0
				for _, d := range deps {
					v += math.Sqrt(cells[d] + float64(d))
				}
				cells[i] = v * 1.0000001
			},
			Out:    i,
			In:     in,
			Serial: serial,
		})
	}
	return b.Build()
}

// TestHybridBitIdenticalToDynamic holds randomized DAGs — interleaved
// Serial keys and NoSerial one-task chains — bit-identical to their
// single-worker run at every worker count, with every serial edge
// resolved by chain order. Run with -race -cpu 2,4 to exercise the
// claim and park paths under contention.
func TestHybridBitIdenticalToDynamic(t *testing.T) {
	const n = 256
	for seed := int64(1); seed <= 8; seed++ {
		want := make([]float64, n)
		randomDAG(rand.New(rand.NewSource(seed)), n, 3, want).Execute(1, ExecOptions{})
		for _, workers := range []int{1, 2, 4, 7} {
			got := make([]float64, n)
			p := randomDAG(rand.New(rand.NewSource(seed)), n, 3, got)
			st, err := p.ExecuteChecked(workers, ExecOptions{})
			if err != nil {
				t.Fatalf("seed=%d workers=%d: %v", seed, workers, err)
			}
			if want := int64(p.NumTasks() - p.NumChains()); st.ChainFused != want {
				t.Fatalf("seed=%d workers=%d: ChainFused = %d, want %d", seed, workers, st.ChainFused, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("seed=%d workers=%d: cells[%d] = %x, want %x", seed, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestHybridContentionManyChains floods 4 workers with 32 chains, each
// task also waiting on the same position of the previous chain, so
// workers keep claiming, yielding and parking on one another's
// counters.
func TestHybridContentionManyChains(t *testing.T) {
	const chains, length = 32, 16
	cells := make([]float64, chains*length)
	b := NewBuilder(chains * length)
	for k := 0; k < length; k++ {
		for c := 0; c < chains; c++ {
			id := c*length + k
			var in []int
			if c > 0 {
				in = []int{id - length}
			}
			b.Add(Task{
				Fn: func() {
					v := 1.0
					if k > 0 {
						v += cells[id-1]
					}
					if c > 0 {
						v += cells[id-length]
					}
					cells[id] = v
				},
				Out:    id,
				In:     in,
				Serial: c,
			})
		}
	}
	p := b.Build()
	if p.NumChains() != chains {
		t.Fatalf("chains = %d", p.NumChains())
	}
	want := make([]float64, len(cells))
	p.Execute(1, ExecOptions{})
	copy(want, cells)
	for run := 0; run < 10; run++ {
		clear(cells)
		st, err := p.ExecuteChecked(4, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st.ChainFused != int64(chains*(length-1)) {
			t.Fatalf("run %d: ChainFused = %d", run, st.ChainFused)
		}
		for i := range want {
			if cells[i] != want[i] {
				t.Fatalf("run %d: cells[%d] = %v, want %v", run, i, cells[i], want[i])
			}
		}
	}
}

func TestHybridMetricsAndEvents(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var order []int32
		p := serialChain(8, &order)
		reg := obs.NewRegistry()
		var mu sync.Mutex
		var events []Event
		if _, err := p.ExecuteChecked(workers, ExecOptions{
			Reg: reg,
			Trace: func(e Event) {
				mu.Lock()
				events = append(events, e)
				mu.Unlock()
			},
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snap := reg.Snapshot()
		if got := snap.Counters["runtime.chain_fused"]; got != 7 {
			t.Fatalf("workers=%d: runtime.chain_fused = %d, want 7", workers, got)
		}
		if got := snap.Counters["runtime.executed"]; got != 8 {
			t.Fatalf("workers=%d: runtime.executed = %d", workers, got)
		}
		if got := snap.Counters["runtime.deps_resolved"]; got != 7 {
			t.Fatalf("workers=%d: runtime.deps_resolved = %d", workers, got)
		}
		// queue_depth counts the chains with tasks left: one, then none.
		if got := snap.Gauges["runtime.queue_depth"]; got != 0 {
			t.Fatalf("workers=%d: queue_depth drained to %d", workers, got)
		}
		if got := snap.Gauges["runtime.queue_depth_peak"]; got != 1 {
			t.Fatalf("workers=%d: queue_depth_peak = %d", workers, got)
		}
		// Every task has one submit, ready, start, and end event, and a
		// task is ready when the task before it in the chain ended.
		counts := map[EventKind]int{}
		ready := map[int]time.Time{}
		end := map[int]time.Time{}
		for _, e := range events {
			counts[e.Kind]++
			switch e.Kind {
			case EventReady:
				ready[e.TaskID] = e.When
			case EventEnd:
				end[e.TaskID] = e.When
			}
		}
		for _, k := range []EventKind{EventSubmit, EventReady, EventStart, EventEnd} {
			if counts[k] != 8 {
				t.Fatalf("workers=%d: %d %v events, want 8", workers, counts[k], k)
			}
		}
		for i := 1; i < 8; i++ {
			if !ready[i].Equal(end[i-1]) {
				t.Fatalf("workers=%d: task %d ready at %v, predecessor ended at %v", workers, i, ready[i], end[i-1])
			}
		}
	}
}

// within runs fn and fails the test if it has not returned after d: a
// lost wake-up or a chain never counted finished shows up as a
// failure, not as a hung test binary.
func within(t *testing.T, d time.Duration, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s: no termination after %v", what, d)
	}
}

// TestChainsTerminateOnYieldBoundary pins the hang a yielding prototype
// had: a chain whose last task completes exactly on a yield boundary
// must still be counted finished. Chains of yieldEvery and 2·yieldEvery
// tasks feed one another (each task waits on the same position of the
// chain before), so workers reach the boundary with a ready
// downstream chain to yield to.
func TestChainsTerminateOnYieldBoundary(t *testing.T) {
	lens := []int{yieldEvery, 2 * yieldEvery, yieldEvery, 2 * yieldEvery, 3 * yieldEvery}
	b := NewBuilder(0)
	var ids [][]int
	for c, l := range lens {
		ids = append(ids, nil)
		for k := 0; k < l; k++ {
			id := len(ids)*100 + k
			ids[c] = append(ids[c], id)
			var in []int
			if c > 0 && k < len(ids[c-1]) {
				in = []int{ids[c-1][k]}
			}
			b.Add(Task{Out: id, In: in, Serial: c})
		}
	}
	p := b.Build()
	runs := 200
	if testing.Short() {
		runs = 20
	}
	for _, workers := range []int{2, 3, 4, 7} {
		for run := 0; run < runs; run++ {
			within(t, 10*time.Second, fmt.Sprintf("workers=%d run %d", workers, run), func() error {
				_, err := p.ExecuteChecked(workers, ExecOptions{})
				return err
			})
		}
	}
}

// TestChainsStressRandomDAGs is the termination and bit-identity
// stress over Builder DAGs in which most tasks are NoSerial one-task
// chains: 200 runs at each worker count, under a watchdog.
func TestChainsStressRandomDAGs(t *testing.T) {
	const n = 96
	runs := 200
	if testing.Short() {
		runs = 20
	}
	for seed := int64(1); seed <= 4; seed++ {
		want := make([]float64, n)
		randomDAG(rand.New(rand.NewSource(seed)), n, 3, want).Execute(1, ExecOptions{})
		got := make([]float64, n)
		p := randomDAG(rand.New(rand.NewSource(seed)), n, 3, got)
		for _, workers := range []int{1, 2, 3, 4, 7} {
			for run := 0; run < runs; run++ {
				clear(got)
				within(t, 10*time.Second, fmt.Sprintf("seed=%d workers=%d run %d", seed, workers, run), func() error {
					_, err := p.ExecuteChecked(workers, ExecOptions{})
					return err
				})
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("seed=%d workers=%d run %d: cells[%d] = %x, want %x", seed, workers, run, i, got[i], want[i])
					}
				}
			}
		}
	}
}
