package exec

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/kernels"
	"repro/internal/scop"
)

func TestVerifyListings(t *testing.T) {
	for _, n := range []int{8, 12, 20} {
		if err := Verify(kernels.Listing1(n), 4, core.Options{}); err != nil {
			t.Errorf("listing1 n=%d: %v", n, err)
		}
		if err := Verify(kernels.Listing3(n), 4, core.Options{}); err != nil {
			t.Errorf("listing3 n=%d: %v", n, err)
		}
	}
}

func TestVerifyCoarseGranularity(t *testing.T) {
	if err := Verify(kernels.Listing3(16), 4, core.Options{MinBlockIters: 5}); err != nil {
		t.Error(err)
	}
}

func TestSequentialDeterministic(t *testing.T) {
	p := kernels.Listing1(12)
	a := Sequential(p)
	b := Sequential(p)
	if a.Hash != b.Hash {
		t.Fatal("sequential execution not deterministic")
	}
	if a.Executor != "sequential" {
		t.Fatalf("executor = %q", a.Executor)
	}
}

func TestPipelinedReportsTasks(t *testing.T) {
	p := kernels.Listing3(16)
	res, err := Pipelined(p, 4, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 169 blocks, lowered in runs of at most maxChainTasks per
	// statement: the result counts the 134 tasks the runtime executed.
	if res.Tasks != 134 {
		t.Fatalf("tasks = %d, want 134", res.Tasks)
	}
	if res.MaxConcurrent < 1 {
		t.Fatalf("maxConcurrent = %d", res.MaxConcurrent)
	}
}

// TestPipelinedObservedResolvesWorkers: a worker count of 0 or less
// means GOMAXPROCS, as it does for every Session method, and the
// observation reports the count it ran on.
func TestPipelinedObservedResolvesWorkers(t *testing.T) {
	p := kernels.Listing3(12)
	want := Sequential(p).Hash
	for _, workers := range []int{0, -1} {
		o, err := PipelinedObserved(p, workers, core.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if o.Workers != runtime.GOMAXPROCS(0) || o.Result.Hash != want {
			t.Fatalf("workers=%d: ran on %d workers, hash %x; want %d, %x", workers, o.Workers, o.Result.Hash, runtime.GOMAXPROCS(0), want)
		}
	}
}

// buildRowChain constructs a chain of nests where each writes its own
// array row by row and reads the same row of the previous array —
// fully parallel rows (the nmm shape).
func buildRowChain(t *testing.T, nests, rows int) *kernels.Program {
	t.Helper()
	grids := make([]*kernels.Grid, nests+1)
	for i := range grids {
		grids[i] = kernels.NewGrid(rows)
	}
	b := scop.NewBuilder("rowchain")
	b.Array("A0", 1)
	for k := 1; k <= nests; k++ {
		b.Array(name(k), 1)
	}
	for k := 1; k <= nests; k++ {
		src := grids[k-1]
		dst := grids[k]
		b.Stmt(stmtName(k), aff.RectDomain(stmtName(k), rows)).
			Writes(name(k), aff.Var(1, 0)).
			Reads(name(k-1), aff.Var(1, 0)).
			Body(func(iv isl.Vec) {
				i := iv[0]
				acc := 0.0
				for j := 0; j < src.N; j++ {
					acc += src.At(i, j)
				}
				for j := 0; j < dst.N; j++ {
					dst.Set(i, j, acc+float64(j))
				}
			})
	}
	sc := b.MustBuild()
	reset := func() {
		for i, g := range grids {
			g.SeedDeterministic(uint64(i + 1))
		}
	}
	reset()
	return &kernels.Program{
		Name: "rowchain", SCoP: sc, Reset: reset,
		Hash: func() uint64 {
			h := uint64(0)
			for _, g := range grids {
				h = h*31 ^ g.Hash()
			}
			return h
		},
	}
}

func name(k int) string     { return "A" + string(rune('0'+k)) }
func stmtName(k int) string { return "S" + string(rune('0'+k)) }

// parallelizableNests reports how many nests of p the per-loop
// baseline can parallelize at any depth.
func parallelizableNests(p *kernels.Program) int {
	g := deps.Analyze(p.SCoP)
	n := 0
	for _, s := range p.SCoP.Stmts {
		for _, ok := range g.ParallelDims(s) {
			if ok {
				n++
				break
			}
		}
	}
	return n
}

func TestParLoopParallelRows(t *testing.T) {
	p := buildRowChain(t, 3, 16)
	if got := parallelizableNests(p); got != 3 {
		t.Fatalf("parallelizableNests = %d, want 3", got)
	}
	want := Sequential(p).Hash
	for _, workers := range []int{1, 2, 4, 8} {
		res := ParLoop(p, workers)
		if res.Hash != want {
			t.Fatalf("workers=%d: parloop hash differs", workers)
		}
	}
}

func TestParLoopSerialNest(t *testing.T) {
	p := kernels.Listing1(16)
	if got := parallelizableNests(p); got != 0 {
		t.Fatalf("parallelizableNests = %d, want 0 (stencils are serial)", got)
	}
	want := Sequential(p).Hash
	if got := ParLoop(p, 4).Hash; got != want {
		t.Fatal("parloop (degenerate sequential) hash differs")
	}
}

func TestParLoopInnerParallel(t *testing.T) {
	// A[i][j] = A[i-1][j]: outer carries the dep, inner parallel.
	g := kernels.NewGrid(12)
	b := scop.NewBuilder("cols")
	b.Array("A", 2)
	b.Stmt("S", aff.NewDomain("S",
		aff.LoopBound{Lo: aff.Const(0, 1), Hi: aff.Const(0, 12)},
		aff.ConstBound(1, 0, 12),
	)).
		Writes("A", aff.Var(2, 0), aff.Var(2, 1)).
		Reads("A", aff.Linear(-1, 1, 0), aff.Var(2, 1)).
		Body(func(iv isl.Vec) {
			g.Set(iv[0], iv[1], g.At(iv[0]-1, iv[1])+1)
		})
	sc := b.MustBuild()
	reset := func() { g.SeedDeterministic(7) }
	reset()
	p := &kernels.Program{Name: "cols", SCoP: sc, Reset: reset, Hash: g.Hash}

	want := Sequential(p).Hash
	for _, workers := range []int{2, 4} {
		if got := ParLoop(p, workers).Hash; got != want {
			t.Fatalf("workers=%d: inner-parallel parloop hash differs", workers)
		}
	}
}

func TestPipelinedRowChain(t *testing.T) {
	p := buildRowChain(t, 4, 24)
	if err := Verify(p, 4, core.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := Pipelined(p, 4, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Row-granular pipeline: each row of each nest is one task.
	if res.Tasks != 4*24 {
		t.Fatalf("tasks = %d, want %d", res.Tasks, 4*24)
	}
}
