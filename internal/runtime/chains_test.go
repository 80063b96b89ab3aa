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

// serialChain builds one chain of n tasks, each appending its id to
// order.
func serialChain(n int, order *[]int32) *Program {
	return buildChains([]int{n}, nil, func(i int) { *order = append(*order, int32(i)) })
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

// randomChains builds a seeded random chain-major program of n tasks
// whose bodies compute cells[i] from the task's predecessors' cells —
// any scheduling that respects the edges yields bit-identical floats.
// Three chains in four are one task long, the rest 2 to 16; each task
// waits on up to 3 tasks of earlier chains, then on the task before it
// in its chain.
func randomChains(rng *rand.Rand, n int, cells []float64) *Program {
	var lens, chainOf, posOf []int
	for len(chainOf) < n {
		l := 1
		if rng.Intn(4) == 0 {
			l = min(2+rng.Intn(15), n-len(chainOf))
		}
		for pos := 0; pos < l; pos++ {
			chainOf, posOf = append(chainOf, len(lens)), append(posOf, pos)
		}
		lens = append(lens, l)
	}
	deps := make([][]int, n)
	data := func(i, c, pos int) [][2]int {
		var preds [][2]int
		for _, k := range rng.Perm(i - pos) {
			if len(preds) == 3 {
				break
			}
			if rng.Intn(3) == 0 {
				preds = append(preds, [2]int{chainOf[k], posOf[k]})
				deps[i] = append(deps[i], k)
			}
		}
		if pos > 0 {
			deps[i] = append(deps[i], i-1)
		}
		return preds
	}
	return buildChains(lens, data, func(i int) {
		v := 1.0
		for _, d := range deps[i] {
			v += math.Sqrt(cells[d] + float64(d))
		}
		cells[i] = v * 1.0000001
	})
}

// TestHybridBitIdenticalToDynamic holds random chain programs — long
// chains among many one-task ones — bit-identical to their
// single-worker run at every worker count, with every serial edge
// resolved by chain order. Run with -race -cpu 2,4 to exercise the
// claim and park paths under contention.
func TestHybridBitIdenticalToDynamic(t *testing.T) {
	const n = 256
	for seed := int64(1); seed <= 8; seed++ {
		want := make([]float64, n)
		randomChains(rand.New(rand.NewSource(seed)), n, want).Execute(1, ExecOptions{})
		for _, workers := range []int{1, 2, 4, 7} {
			got := make([]float64, n)
			p := randomChains(rand.New(rand.NewSource(seed)), n, got)
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
	lens := make([]int, chains)
	for c := range lens {
		lens[c] = length
	}
	p := buildChains(lens, func(_, c, k int) [][2]int {
		if c == 0 {
			return nil
		}
		return [][2]int{{c - 1, k}}
	}, func(id int) {
		v := 1.0
		if id%length > 0 {
			v += cells[id-1]
		}
		if id >= length {
			v += cells[id-length]
		}
		cells[id] = v
	})
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
	p := buildChains(lens, func(_, c, k int) [][2]int {
		if c == 0 || k >= lens[c-1] {
			return nil
		}
		return [][2]int{{c - 1, k}}
	}, nil)
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
// stress over random chain programs in which most chains are one task
// long: 200 runs at each worker count, under a watchdog.
func TestChainsStressRandomDAGs(t *testing.T) {
	const n = 96
	runs := 200
	if testing.Short() {
		runs = 20
	}
	for seed := int64(1); seed <= 4; seed++ {
		want := make([]float64, n)
		randomChains(rand.New(rand.NewSource(seed)), n, want).Execute(1, ExecOptions{})
		got := make([]float64, n)
		p := randomChains(rand.New(rand.NewSource(seed)), n, got)
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
