package fuzzscop

import (
	"math/rand"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/runtime"
	"repro/internal/scop"
)

func TestRandomProgramsAreValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		sc := Random(r, Config{Shifted: seed%2 == 1})
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := deps.CrossHazards(sc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDifferentialPipelined is the core soundness net: for many random
// programs — every third with negative and shifted loop bounds — the
// pipelined execution must reproduce the sequential result bit-for-bit
// under several worker counts and options.
func TestDifferentialPipelined(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 25
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		r := rand.New(rand.NewSource(seed))
		sc := Random(r, Config{Shifted: seed%3 == 1})
		p := interp.Programify(sc)
		opts := core.Options{}
		if r.Intn(3) == 0 {
			opts.MinBlockIters = 1 + r.Intn(8)
		}
		if r.Intn(4) == 0 {
			opts.PairwiseBlocks = true
		}
		workers := 1 + r.Intn(8)
		if err := exec.Verify(p, workers, opts); err != nil {
			t.Fatalf("seed %d (workers=%d, opts=%+v, scop=%s): %v",
				seed, workers, opts, sc.Name, err)
		}
	}
}

// TestDifferentialSerialHeavy stresses the fully serialized case where
// every nest carries anti deps (the paper's target workloads).
func TestDifferentialSerialHeavy(t *testing.T) {
	for seed := int64(1000); seed < 1040; seed++ {
		r := rand.New(rand.NewSource(seed))
		sc := Random(r, Config{SelfSerial: AlwaysSerial})
		p := interp.Programify(sc)
		g := deps.Analyze(sc)
		for _, s := range sc.Stmts {
			par := g.ParallelDims(s)
			if par[len(par)-1] {
				t.Fatalf("seed %d: self-serialized nest %s has a parallel innermost loop", seed, s.Name)
			}
		}
		if err := exec.Verify(p, 4, core.Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDifferentialDataParallel stresses programs with no intra-nest
// conflicts, where the baseline parallelizes everything.
func TestDifferentialDataParallel(t *testing.T) {
	for seed := int64(2000); seed < 2040; seed++ {
		r := rand.New(rand.NewSource(seed))
		sc := Random(r, Config{SelfSerial: NeverSerial})
		p := interp.Programify(sc)
		if err := exec.Verify(p, 6, core.Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDifferentialOverwrites exercises the relaxed last-writer
// extension: programs with non-injective writes must still match
// sequential execution when pipelined with AllowOverwrites.
func TestDifferentialOverwrites(t *testing.T) {
	for seed := int64(4000); seed < 4080; seed++ {
		r := rand.New(rand.NewSource(seed))
		sc := Random(r, Config{Overwrites: true})
		p := interp.Programify(sc)
		if err := exec.Verify(p, 4, core.Options{AllowOverwrites: true}); err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sc.Name, err)
		}
	}
}

// TestDifferentialDepth3 stresses depth-3 nests (beyond the paper's
// prototype, which generated code only up to depth 2).
func TestDifferentialDepth3(t *testing.T) {
	for seed := int64(6000); seed < 6040; seed++ {
		r := rand.New(rand.NewSource(seed))
		sc := Random(r, Config{MaxDepth: 3, MaxExtent: 5})
		p := interp.Programify(sc)
		if err := exec.Verify(p, 4, core.Options{}); err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sc.Name, err)
		}
	}
}

func TestDetectNeverPanicsOnRandomPrograms(t *testing.T) {
	for seed := int64(3000); seed < 3200; seed++ {
		r := rand.New(rand.NewSource(seed))
		sc := Random(r, Config{MaxNests: 5, MaxExtent: 10})
		info, err := core.Detect(sc, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Structural sanity: every statement has blocks covering its
		// domain exactly.
		for _, si := range info.Stmts {
			n := 0
			for _, blk := range si.Blocks {
				n += blk.Len()
			}
			if n != si.Stmt.Domain.Card() {
				t.Fatalf("seed %d: %s blocks cover %d of %d iterations",
					seed, si.Stmt.Name, n, si.Stmt.Domain.Card())
			}
		}
	}
}

// runThroughRuntime lowers sc to the compiled runtime IR and executes
// it under several worker counts. Each run must execute every task
// (no deadlock or lost wake-up) and resolve every dependency edge, and
// the array state must still match sequential execution bit-for-bit.
func runThroughRuntime(t *testing.T, sc *scop.SCoP, opts core.Options) {
	t.Helper()
	p := interp.Programify(sc)
	info, err := core.Detect(sc, opts)
	if err != nil {
		t.Fatalf("%s: detect: %v", sc.Name, err)
	}
	prog, err := codegen.CompileWithOptions(info, codegen.CompileOptions{MinBlockIters: opts.MinBlockIters})
	if err != nil {
		t.Fatalf("%s: compile: %v", sc.Name, err)
	}
	ir := prog.Lower()
	want := exec.Sequential(p).Hash
	for _, workers := range []int{1, 2, 4, 7} {
		p.Reset()
		st := ir.Execute(workers, runtime.ExecOptions{})
		if st.Executed != ir.NumTasks() || st.DepsResolved != int64(ir.NumEdges()) {
			t.Fatalf("%s (workers=%d): executed %d of %d tasks, resolved %d of %d edges",
				sc.Name, workers, st.Executed, ir.NumTasks(), st.DepsResolved, ir.NumEdges())
		}
		if got := p.Hash(); got != want {
			t.Fatalf("%s (workers=%d): runtime hash %x != sequential %x",
				sc.Name, workers, got, want)
		}
	}
}

// TestStressExecutesThroughRuntime drives the deterministic stress
// SCoP through the unified runtime: lowered once, executed under
// several worker counts, every execution checked for completeness.
func TestStressExecutesThroughRuntime(t *testing.T) {
	runThroughRuntime(t, Stress(), core.Options{})
}

// TestDifferentialRuntimeExecution fuzzes the runtime directly: random
// SCoPs (including overwriting and serial-heavy shapes) are lowered to
// the IR and executed checked — no deadlocks, all indegrees drained,
// results bit-identical to sequential.
func TestDifferentialRuntimeExecution(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(9000); seed < int64(9000+seeds); seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{Sink: r.Intn(2) == 0, Overwrites: r.Intn(3) == 0, Shifted: seed%3 == 0}
		opts := core.Options{AllowOverwrites: cfg.Overwrites}
		if r.Intn(3) == 0 {
			opts.MinBlockIters = 1 + r.Intn(6)
		}
		sc := Random(r, cfg)
		runThroughRuntime(t, sc, opts)
	}
}

// TestDifferentialSinks covers pure-reader (no-write) final nests: the
// interpreter folds sink values into the hash, so mis-scheduled sinks
// (reading arrays before their writers finished) change the result.
func TestDifferentialSinks(t *testing.T) {
	for seed := int64(8000); seed < 8060; seed++ {
		r := rand.New(rand.NewSource(seed))
		sc := Random(r, Config{Sink: true})
		if sc.Statement("Sink") == nil {
			continue
		}
		if sc.Statement("Sink").Write != nil {
			t.Fatalf("seed %d: sink has a write", seed)
		}
		p := interp.Programify(sc)
		if err := exec.Verify(p, 4, core.Options{}); err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sc.Name, err)
		}
	}
}
