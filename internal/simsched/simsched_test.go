package simsched

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/kernels"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestListSingleProcIsSequential(t *testing.T) {
	tasks := []Task{{Cost: ms(3)}, {Cost: ms(5)}, {Cost: ms(2)}}
	sch := List(tasks, 1)
	if sch.Makespan != ms(10) || sch.Busy != ms(10) {
		t.Fatalf("makespan = %v, busy = %v", sch.Makespan, sch.Busy)
	}
	if sch.Speedup() != 1 {
		t.Fatalf("speedup = %f", sch.Speedup())
	}
}

func TestListIndependentTasksParallelize(t *testing.T) {
	tasks := []Task{{Cost: ms(4)}, {Cost: ms(4)}, {Cost: ms(4)}, {Cost: ms(4)}}
	sch := List(tasks, 4)
	if sch.Makespan != ms(4) {
		t.Fatalf("makespan = %v, want 4ms", sch.Makespan)
	}
	if sch.Speedup() != 4 {
		t.Fatalf("speedup = %f", sch.Speedup())
	}
}

func TestListChainIsSerial(t *testing.T) {
	tasks := []Task{
		{Cost: ms(2)},
		{Cost: ms(2), Deps: []int{0}},
		{Cost: ms(2), Deps: []int{1}},
	}
	sch := List(tasks, 8)
	if sch.Makespan != ms(6) {
		t.Fatalf("makespan = %v", sch.Makespan)
	}
	// Start times respect the chain.
	if sch.Start[1] != ms(2) || sch.Start[2] != ms(4) {
		t.Fatalf("starts = %v", sch.Start)
	}
}

func TestListDiamond(t *testing.T) {
	// a -> {b, c} -> d; with 2 procs b and c overlap.
	tasks := []Task{
		{Cost: ms(1)},
		{Cost: ms(3), Deps: []int{0}},
		{Cost: ms(3), Deps: []int{0}},
		{Cost: ms(1), Deps: []int{1, 2}},
	}
	if got := List(tasks, 2).Makespan; got != ms(5) {
		t.Fatalf("2-proc diamond makespan = %v, want 5ms", got)
	}
	if got := List(tasks, 1).Makespan; got != ms(8) {
		t.Fatalf("1-proc diamond makespan = %v, want 8ms", got)
	}
}

func TestListPipelineOverlap(t *testing.T) {
	// Two 4-block serialized chains; chain-2 block i depends on
	// chain-1 block i. With 2 procs the classic pipeline overlap gives
	// makespan 5 units instead of 8.
	var tasks []Task
	for i := 0; i < 4; i++ {
		d := []int{}
		if i > 0 {
			d = append(d, i-1)
		}
		tasks = append(tasks, Task{Cost: ms(1), Deps: d})
	}
	for i := 0; i < 4; i++ {
		d := []int{i} // cross dep on producer block
		if i > 0 {
			d = append(d, 4+i-1)
		}
		tasks = append(tasks, Task{Cost: ms(1), Deps: d})
	}
	sch := List(tasks, 2)
	if sch.Makespan != ms(5) {
		t.Fatalf("pipeline makespan = %v, want 5ms", sch.Makespan)
	}
}

func TestListPanicsOnBadDeps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	List([]Task{{Cost: ms(1), Deps: []int{0}}}, 1) // self dep
}

func TestListPanicsOnZeroProcs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	List(nil, 0)
}

func TestQuickListInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		procs := 1 + r.Intn(8)
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i].Cost = time.Duration(r.Intn(10)) * time.Millisecond
			for k := 0; k < r.Intn(3) && i > 0; k++ {
				tasks[i].Deps = append(tasks[i].Deps, r.Intn(i))
			}
		}
		sch := List(tasks, procs)
		// Bounds: max(critical path lower bound busy/procs) <= makespan <= busy.
		if sch.Makespan > sch.Busy {
			return false
		}
		if procs == 1 && sch.Makespan != sch.Busy {
			return false
		}
		// Dependency order respected.
		for i, t := range tasks {
			for _, d := range t.Deps {
				if sch.Start[i] < sch.Finish[d] {
					return false
				}
			}
			if sch.Finish[i]-sch.Start[i] != t.Cost {
				return false
			}
		}
		// Processor capacity: at any task start, at most procs tasks
		// overlap. Check pairwise overlap count at start instants.
		for i := range tasks {
			overlap := 0
			for j := range tasks {
				if sch.Start[j] <= sch.Start[i] && sch.Start[i] < sch.Finish[j] {
					overlap++
				}
			}
			if overlap > procs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// compile detects and compiles p's pipeline at the default options.
func compile(t *testing.T, p *kernels.Program) *codegen.TaskProgram {
	t.Helper()
	info, err := core.Detect(p.SCoP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Compile(info)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestSimulatePipelinedListing3(t *testing.T) {
	p := kernels.Listing3(16)
	tasks, seq := MeasureCompiled(p, compile(t, p), 0)
	sch := List(tasks, 4)
	if seq <= 0 || sch.Makespan <= 0 {
		t.Fatalf("seq = %v, makespan = %v", seq, sch.Makespan)
	}
	if sch.Makespan > sch.Busy {
		t.Fatal("makespan exceeds total work")
	}
	// State must be reset afterwards.
	h := p.Hash()
	p.Reset()
	if p.Hash() != h {
		t.Fatal("simulate left dirty state")
	}
}

// retryMeasured runs a measurement-based check up to attempts times:
// per-task cost measurements are distorted when the host is loaded
// (e.g. while the benchmark suite hogs the CPU), so transient shape
// violations are retried before failing.
func retryMeasured(t *testing.T, attempts int, check func() error) {
	t.Helper()
	var err error
	for i := 0; i < attempts; i++ {
		if err = check(); err == nil {
			return
		}
	}
	t.Error(err)
}

func TestSimulateParLoopShapes(t *testing.T) {
	retryMeasured(t, 3, func() error {
		// Parallel rows: simulated parloop speed-up must clearly beat 1.
		mm := kernels.MMChain(2, 64, kernels.MM)
		_, sch := SimulateParLoop(mm, 4, 0)
		if sp := sch.Speedup(); sp < 2 {
			return fmt.Errorf("mm parloop simulated speedup = %.2f, want >= 2", sp)
		}
		// Serial nests: parloop gains nothing.
		gmm := kernels.MMChain(2, 32, kernels.GMM)
		_, sch2 := SimulateParLoop(gmm, 4, 0)
		if sp := sch2.Speedup(); sp > 1.05 {
			return fmt.Errorf("gmm parloop simulated speedup = %.2f, want ~1", sp)
		}
		return nil
	})
}

// TestSimulatedFigureShape checks the paper's headline qualitative
// result in virtual time: on gmm chains the pipeline beats the Polly
// baseline; on plain mm chains the baseline (with enough threads)
// beats the pipeline. The gmm pipeline's schedule is built with one
// nanosecond per statement instance, so its bound does not depend on
// host load; the rest is measured (MeasureCompiled is covered by
// TestSimulatePipelinedListing3).
func TestSimulatedFigureShape(t *testing.T) {
	rows := 96
	gmm := kernels.MMChain(3, rows, kernels.GMM)
	prog := compile(t, gmm)
	grains := prog.Grains()
	tasks := make([]Task, len(grains))
	for i, g := range grains {
		tasks[i].Cost = time.Duration(len(prog.Members(g)))
	}
	for _, e := range prog.PrecedenceEdges() {
		tasks[e[1]].Deps = append(tasks[e[1]].Deps, e[0])
	}
	if sp := List(tasks, 3).Speedup(); sp < 1.8 {
		t.Fatalf("gmm pipeline simulated speedup = %.2f, want >= 1.8", sp)
	}
	mm := kernels.MMChain(3, rows, kernels.MM)
	progMM := compile(t, mm)
	retryMeasured(t, 3, func() error {
		_, parSch := SimulateParLoop(gmm, 3, 0)
		if parSch.Speedup() > 1.1 {
			return fmt.Errorf("gmm parloop simulated speedup = %.2f, want ~1", parSch.Speedup())
		}

		tasks, _ := MeasureCompiled(mm, progMM, 0)
		pipeMM := List(tasks, 3)
		_, parMM := SimulateParLoop(mm, 8, 0)
		if parMM.Speedup() <= pipeMM.Speedup() {
			return fmt.Errorf("mm: polly_8 (%.2f) should beat pipeline (%.2f)",
				parMM.Speedup(), pipeMM.Speedup())
		}
		return nil
	})
}
