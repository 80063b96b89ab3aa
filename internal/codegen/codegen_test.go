package codegen

import (
	"math/rand"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzzscop"
	"repro/internal/interp"
	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/kernels"
	"repro/internal/runtime"
	"repro/internal/scop"
)

// runSequential executes a program's statements nest by nest in
// lexicographic order — the reference semantics.
func runSequential(p *kernels.Program) uint64 {
	p.Reset()
	for _, s := range p.SCoP.Stmts {
		for _, iv := range s.Domain.Elements() {
			s.Body(iv)
		}
	}
	return p.Hash()
}

// compile detects p under opts and compiles it at opts' MinBlockIters.
func compile(t *testing.T, p *kernels.Program, opts core.Options) *TaskProgram {
	t.Helper()
	info, err := core.Detect(p.SCoP, opts)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileWithOptions(info, CompileOptions{MinBlockIters: opts.MinBlockIters})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestVecCoderUnique(t *testing.T) {
	c := VecCoder{Stride: 21, NumStmts: 3}
	seen := map[int]string{}
	for s := 0; s < 3; s++ {
		for i := 0; i < 19; i++ {
			for j := 0; j < 19; j++ {
				addr := c.Encode(s, isl.NewVec(i, j))
				key := c.labelFor(s, i, j)
				if prev, dup := seen[addr]; dup {
					t.Fatalf("address collision: %s and %s -> %d", prev, key, addr)
				}
				seen[addr] = key
			}
		}
	}
}

func (c VecCoder) labelFor(s, i, j int) string {
	return strings.Join([]string{
		string(rune('A' + s)),
	}, "") + isl.NewVec(i, j).String()
}

func TestCompileListing1(t *testing.T) {
	p := kernels.Listing1(20)
	prog := compile(t, p, core.Options{})
	info, _ := core.Detect(p.SCoP, core.Options{})
	if prog.NumTasks() != info.TotalBlocks() {
		t.Fatalf("tasks = %d, want %d", prog.NumTasks(), info.TotalBlocks())
	}
	// Runs appear statement by statement in program order.
	lastStmt := int32(-1)
	for _, r := range prog.ChainTasks() {
		if r.Stmt < lastStmt {
			t.Fatal("tasks out of statement order")
		}
		lastStmt = r.Stmt
	}
	// Every in-address must match the out-address of an earlier block.
	outs, ins := addresses(prog)
	written := map[int]bool{}
	for i, k := range blocks(prog) {
		for _, in := range ins[i] {
			if !written[in] {
				t.Fatalf("block %s depends on address %d with no earlier writer", k.label(), in)
			}
		}
		written[outs[i]] = true
	}
}

func TestPipelinedMatchesSequentialListing1(t *testing.T) {
	p := kernels.Listing1(20)
	want := runSequential(p)
	prog := compile(t, p, core.Options{})
	for _, workers := range []int{1, 2, 4, 8} {
		p.Reset()
		prog.Run(workers)
		if got := p.Hash(); got != want {
			t.Fatalf("workers=%d: pipelined hash %x != sequential %x", workers, got, want)
		}
	}
}

func TestPipelinedMatchesSequentialListing3(t *testing.T) {
	p := kernels.Listing3(16)
	want := runSequential(p)
	prog := compile(t, p, core.Options{})
	for trial := 0; trial < 10; trial++ {
		p.Reset()
		prog.Run(4)
		if got := p.Hash(); got != want {
			t.Fatalf("trial %d: pipelined hash %x != sequential %x", trial, got, want)
		}
	}
}

func TestPipelinedMatchesSequentialCoarse(t *testing.T) {
	p := kernels.Listing3(16)
	want := runSequential(p)
	prog := compile(t, p, core.Options{MinBlockIters: 6})
	p.Reset()
	prog.Run(4)
	if got := p.Hash(); got != want {
		t.Fatalf("coarse-grained pipelined hash %x != sequential %x", got, want)
	}
}

func TestCompileRejectsMissingBodies(t *testing.T) {
	b := scop.NewBuilder("nobody")
	b.Array("A", 1)
	b.Stmt("S", aff.RectDomain("S", 4)).Writes("A", aff.Var(1, 0))
	sc := b.MustBuild()
	info, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(info); err == nil {
		t.Fatal("expected error for missing bodies")
	}
}

func TestRunTracedReportsConcurrency(t *testing.T) {
	p := kernels.Listing3(16)
	prog := compile(t, p, core.Options{})
	// Listing 3 at n = 16 has 169 blocks; the statements holding more
	// than maxChainTasks of them run in pairs, 134 chain tasks in all.
	const chainTasks = 134
	if n := len(prog.ChainTasks()); n != chainTasks {
		t.Fatalf("%d chain tasks for %d blocks, want %d", n, prog.NumTasks(), chainTasks)
	}
	p.Reset()
	var mu sync.Mutex
	events := map[runtime.EventKind]int{}
	executed, maxRun := prog.RunTraced(4, func(e runtime.Event) {
		mu.Lock()
		events[e.Kind]++
		mu.Unlock()
	})
	if executed != chainTasks {
		t.Fatalf("executed = %d, want %d", executed, chainTasks)
	}
	// Every task passes through the full submit/ready/start/end cycle.
	for _, k := range []runtime.EventKind{runtime.EventSubmit, runtime.EventReady, runtime.EventStart, runtime.EventEnd} {
		if events[k] != chainTasks {
			t.Fatalf("%v events = %d, want %d", k, events[k], chainTasks)
		}
	}
	if maxRun < 1 {
		t.Fatalf("maxConcurrent = %d", maxRun)
	}
}

// TestQuickAddressUniqueness fuzzes the §5.4 integer dependency
// encoding across random programs, half of them with negative and
// shifted bounds: no two blocks of any statements may share a
// dependency address, and none may be negative.
func TestQuickAddressUniqueness(t *testing.T) {
	for seed := int64(7000); seed < 7060; seed++ {
		r := rand.New(rand.NewSource(seed))
		sc := fuzzscop.Random(r, fuzzscop.Config{MaxNests: 5, MaxExtent: 9, Shifted: seed%2 == 1})
		p := interp.Programify(sc)
		_ = p
		info, err := core.Detect(sc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(info)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]string{}
		outs, _ := addresses(prog)
		for i, k := range blocks(prog) {
			out, label := outs[i], k.label()
			if out < 0 {
				t.Fatalf("seed %d: %s has negative address %d", seed, label, out)
			}
			if prev, dup := seen[out]; dup {
				t.Fatalf("seed %d: address %d used by %s and %s", seed, out, prev, label)
			}
			seen[out] = label
		}
	}
}

// TestCompileAllocsProportionalToTasks is the compile path's complexity
// guard, free of any clock: Compile allocates per program — the run
// list and the chain columns — and never per block, so
// its allocation count stays under one line c·tasks + c′ at two sizes
// a factor of four apart. A label formatted per block, an address list
// grown per block, or a block re-derived from the contraction would
// each add at least one allocation per block and break the bound at
// both sizes.
func TestCompileAllocsProportionalToTasks(t *testing.T) {
	const perTask, fixed = 1.0 / 8, 400
	for _, n := range []int{16, 32} {
		p, err := kernels.Table9Program("P10", n, 1)
		if err != nil {
			t.Fatal(err)
		}
		info, err := core.Detect(p.SCoP, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		info.Freeze()
		prog, err := Compile(info)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() { _, _ = Compile(info) })
		if bound := perTask*float64(prog.NumTasks()) + fixed; allocs > bound {
			t.Errorf("n=%d: Compile made %.0f allocations for %d tasks, bound %.0f", n, allocs, prog.NumTasks(), bound)
		}
	}
}

// TestCompileBytesIndependentOfBlocks: Compile and BuildIR on P10 at
// n = 64 — 15 498 blocks cut into 252 runs — allocate under 64 KiB
// together. The plan costs per run and per edge of the chain program,
// not per block: a per-block task list alone would take ≈ 100 B for
// each of the 15 498 blocks.
func TestCompileBytesIndependentOfBlocks(t *testing.T) {
	p, err := kernels.Table9Program("P10", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := core.Detect(p.SCoP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	info.Freeze()
	prog, err := Compile(info)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumTasks() != 15498 || len(prog.ChainTasks()) != 252 {
		t.Fatalf("P10/n=64: %d blocks in %d runs, want 15498 in 252", prog.NumTasks(), len(prog.ChainTasks()))
	}
	const runs = 10
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		prog, _ := Compile(info)
		prog.BuildIR()
	}
	goruntime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 64<<10 {
		t.Fatalf("Compile + BuildIR allocated %d B per run, want < %d", perRun, 64<<10)
	}
}

// negativeProgram is two nests over i, j ∈ [-6, 6), the second reading
// what the first wrote: leaders with negative coordinates.
func negativeProgram() *kernels.Program {
	dom := func(name string) *aff.Domain {
		return aff.NewDomain(name, aff.ConstBound(0, -6, 6), aff.ConstBound(1, -6, 6))
	}
	b := scop.NewBuilder("negative")
	b.Array("A", 2).Array("B", 2)
	b.Stmt("S", dom("S")).Writes("A", aff.Var(2, 0), aff.Var(2, 1))
	b.Stmt("T", dom("T")).
		Writes("B", aff.Var(2, 0), aff.Var(2, 1)).
		Reads("A", aff.Var(2, 0), aff.Var(2, 1))
	return interp.Programify(b.MustBuild())
}

// TestNegativeBoundsAddresses is the regression test for §5.4 addresses
// on negative coordinates. Sizing digits from the largest coordinate
// alone made S[-6, 1] and S[-5, -6] share the negative address -66,
// which the runtime reads as "no output": the edges vanished and runs
// raced. Addresses must be non-negative and injective over all tasks,
// and every run must match sequential execution.
func TestNegativeBoundsAddresses(t *testing.T) {
	p := negativeProgram()
	prog := compile(t, p, core.Options{})
	outs, ins := addresses(prog)
	seen := map[int]string{}
	for i, k := range blocks(prog) {
		out, label := outs[i], k.label()
		if out < 0 {
			t.Fatalf("task %s has negative address %d", label, out)
		}
		if prev, dup := seen[out]; dup {
			t.Fatalf("address %d used by %s and %s", out, prev, label)
		}
		seen[out] = label
		for _, in := range ins[i] {
			if _, ok := seen[in]; !ok {
				t.Fatalf("task %s waits on address %d with no earlier writer", label, in)
			}
		}
	}
	want := runSequential(p)
	for _, workers := range []int{1, 2, 4} {
		for run := 0; run < 100; run++ {
			p.Reset()
			prog.Run(workers)
			if got := p.Hash(); got != want {
				t.Fatalf("workers=%d run %d: pipelined hash %x != sequential %x", workers, run, got, want)
			}
		}
	}
}
