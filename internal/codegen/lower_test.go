package codegen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fuzzscop"
	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/runtime"
	"repro/internal/scop"
)

// checkLoweringAgainstReplay holds the chain columns built at one task
// per block element-equal to the §5.5 replay — the same edges in the
// same per-task order, the same chain of every task — and the
// per-block edge view equal to the replay's edges.
func checkLoweringAgainstReplay(t *testing.T, name string, prog *TaskProgram) {
	t.Helper()
	got := prog.PerBlockIR()
	wantAll, keys := replay(prog)
	var wantCross [][2]int
	for _, e := range wantAll {
		if keys[e[0]] != keys[e[1]] {
			wantCross = append(wantCross, e)
		}
	}
	if got.NumTasks() != len(keys) || got.NumChains() != len(prog.Stmts) {
		t.Fatalf("%s: %d tasks, %d chains; replay %d blocks of %d statements", name, got.NumTasks(), got.NumChains(), len(keys), len(prog.Stmts))
	}
	gotAll, gotCross := got.Edges()
	if !slices.Equal(gotAll, wantAll) || !slices.Equal(gotCross, wantCross) {
		t.Fatalf("%s: edges %v (cross %v); replay %v (cross %v)", name, gotAll, gotCross, wantAll, wantCross)
	}
	for i := 0; i < got.NumTasks(); i++ {
		if got.Serial(i) != keys[i] {
			t.Fatalf("%s: task %d serial %d; replay %d", name, i, got.Serial(i), keys[i])
		}
	}
	if !slices.Equal(prog.PrecedenceEdges(), wantAll) {
		t.Fatalf("%s: PrecedenceEdges differ from the replay's edges", name)
	}
}

// TestReplayResolvesWriterAndSerial pins the replay's resolution rules
// on a hand-made task stream: a duplicate in-address yields one edge,
// a writer edge that is also the serial edge yields one edge, and a
// reader waits on the latest writer of its address.
func TestReplayResolvesWriterAndSerial(t *testing.T) {
	outs := []int{10, 11, 10, 12}
	ins := [][]int{
		nil,
		{10, 10}, // task 0, once
		{11},     // task 1, writer and serial predecessor
		{10},     // task 2, not task 0
	}
	keys := []int{0, 1, 1, 2}
	if got, want := fmt.Sprint(resolve(outs, ins, keys)), "[[0 1] [1 2] [2 3]]"; got != want {
		t.Fatalf("resolve = %s, want %s", got, want)
	}
}

// oracleInputs is the lowering corpus: Table 9 P1–P10 at n = 16 and
// 32, 3mm, seeds random SCoPs with overwrites, sinks and a third of
// them with negative and shifted bounds, and seeds plain ones, every
// other one shifted.
func oracleInputs(seeds int) (names []string, scs []*scop.SCoP) {
	for _, spec := range kernels.Table9 {
		for _, n := range []int{16, 32} {
			names = append(names, fmt.Sprintf("%s/n=%d", spec.Name, n))
			scs = append(scs, kernels.BuildTable9(spec, n, 1).SCoP)
		}
	}
	names = append(names, "3mm")
	scs = append(scs, kernels.MMChain(3, 6, kernels.MM).SCoP)
	for seed := 0; seed < seeds; seed++ {
		cfg := fuzzscop.Config{Overwrites: seed%2 == 0, Sink: seed%5 == 0, Shifted: seed%3 == 1}
		names = append(names, fmt.Sprintf("fuzz-%d", seed))
		scs = append(scs, fuzzscop.Random(rand.New(rand.NewSource(int64(seed))), cfg))
	}
	for seed := 1; seed <= seeds; seed++ {
		names = append(names, fmt.Sprintf("fuzz-plain-%d", seed))
		scs = append(scs, fuzzscop.Random(rand.New(rand.NewSource(int64(seed))), fuzzscop.Config{Shifted: seed%2 == 0}))
	}
	return names, scs
}

// TestBuildIRMatchesReplay is the oracle for lowering straight from
// the in-dependency columns: over the corpus at MinBlockIters 1, 4 and
// 64, the program built with runs of one grain equals, edge for edge,
// what the §5.5 replay resolves from the §5.4 addresses. The coarse
// plan BuildIR builds is held to this grain DAG by
// TestCoarsePlanSound.
func TestBuildIRMatchesReplay(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	names, scs := oracleInputs(seeds)
	for k, sc := range scs {
		info, err := core.Detect(sc, core.Options{AllowOverwrites: true, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", names[k], err)
		}
		for _, minIters := range []int{1, 4, 64} {
			prog, err := CompileForEmission(info, CompileOptions{MinBlockIters: minIters})
			if err != nil {
				t.Fatalf("%s: %v", names[k], err)
			}
			checkLoweringAgainstReplay(t, fmt.Sprintf("%s min=%d", names[k], minIters), prog)
		}
	}
}

// TestChainExecutorStress is the termination and bit-identity stress
// of the chain executor on compiled programs: every Table 9 program and
// shifted random SCoPs, 200 runs at each of 1, 2, 3, 4 and 7 workers,
// each checked against the sequential hash and run under a watchdog, so
// a lost wake-up fails the test instead of hanging it. Run it with
// -race.
func TestChainExecutorStress(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 20
	}
	var progs []*kernels.Program
	for _, spec := range kernels.Table9 {
		progs = append(progs, interp.Programify(kernels.BuildTable9(spec, 8, 1).SCoP))
	}
	for seed := int64(1); seed <= 6; seed++ {
		sc := fuzzscop.Random(rand.New(rand.NewSource(seed)), fuzzscop.Config{MaxNests: 5, Shifted: true})
		progs = append(progs, interp.Programify(sc))
	}
	for _, p := range progs {
		want := runSequential(p)
		info, err := core.Detect(p.SCoP, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		prog, err := Compile(info)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		ir := prog.Lower()
		for _, workers := range []int{1, 2, 3, 4, 7} {
			for run := 0; run < runs; run++ {
				p.Reset()
				done := make(chan error, 1)
				go func() {
					done <- executeChecked(ir, workers)
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("%s workers=%d run %d: %v", p.Name, workers, run, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s workers=%d run %d: no termination after 10s", p.Name, workers, run)
				}
				if got := p.Hash(); got != want {
					t.Fatalf("%s workers=%d run %d: hash %x, want %x", p.Name, workers, run, got, want)
				}
			}
		}
	}
}

// executeChecked runs ir and checks the run's stats: every task
// executed and every dependency edge resolved.
func executeChecked(ir *runtime.Program, workers int) error {
	st := ir.Execute(workers, runtime.ExecOptions{})
	if st.Executed != ir.NumTasks() || st.DepsResolved != int64(ir.NumEdges()) {
		return fmt.Errorf("executed %d of %d tasks, resolved %d of %d edges", st.Executed, ir.NumTasks(), st.DepsResolved, ir.NumEdges())
	}
	return nil
}

// TestCoarsePlanSound holds the chain program BuildIR lowers to the
// paper's task DAG over Table 9 P1–P10 at n = 16, 32 and 64 and
// 200 random SCoPs, every other one shifted, each compiled at
// MinBlockIters 1 and 4; and runs it at 1, 2 and 4 workers, each run
// bit-identical to the sequential program (exec.Sequential's order).
func TestCoarsePlanSound(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	coarse := 0
	for _, mbi := range []int{1, 4} {
		var names []string
		var progs []*kernels.Program
		for _, spec := range kernels.Table9 {
			for _, n := range []int{16, 32, 64} {
				names = append(names, fmt.Sprintf("%s/n=%d", spec.Name, n))
				progs = append(progs, interp.Programify(kernels.BuildTable9(spec, n, 1).SCoP))
			}
		}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			sc := fuzzscop.Random(rand.New(rand.NewSource(seed)), fuzzscop.Config{Shifted: seed%2 == 0})
			names = append(names, fmt.Sprintf("fuzz-%d", seed))
			progs = append(progs, interp.Programify(sc))
		}
		for k, p := range progs {
			name := fmt.Sprintf("%s mbi=%d", names[k], mbi)
			prog := compile(t, p, core.Options{MinBlockIters: mbi})
			checkCoarsePlan(t, name, prog)
			if len(prog.ChainTasks()) < prog.NumTasks() {
				coarse++
			}
			want := runSequential(p)
			for _, workers := range []int{1, 2, 4} {
				p.Reset()
				prog.Run(workers)
				if got := p.Hash(); got != want {
					t.Fatalf("%s workers=%d: hash %x, want %x", name, workers, got, want)
				}
			}
		}
	}
	if coarse == 0 {
		t.Fatal("no program ran in runs of more than one block")
	}
}

// checkCoarsePlan checks the chain program against the grain DAG:
// its tasks are runs that partition every statement's blocks in order,
// each holding whole grains; no chain holds more than maxChainTasks of
// them; every predecessor is an earlier task, and within a chain only
// the task just before; and every grain-level edge (Src, q) → (S, g)
// is implied — the run holding g waits on a run of Src at or after the
// one holding q, or holds q itself.
func checkCoarsePlan(t *testing.T, name string, prog *TaskProgram) {
	t.Helper()
	rt, runs := prog.Lower(), prog.ChainTasks()
	if rt.NumTasks() != len(runs) {
		t.Fatalf("%s: %d chain tasks, %d runs", name, rt.NumTasks(), len(runs))
	}
	edges, _ := rt.Edges()
	preds := make([][]int, len(runs))
	for _, e := range edges {
		preds[e[1]] = append(preds[e[1]], e[0])
	}
	// (s, b) is the next block a run must start at.
	s, b := 0, 0
	skipDone := func() {
		for s < len(prog.Stmts) && b == len(prog.Stmts[s].Blocks) {
			s, b = s+1, 0
		}
	}
	skipDone()
	grains := prog.Grains()
	runOf := make([]int, 0, len(grains))
	perChain := map[int32]int{}
	for i, r := range runs {
		if int(r.Stmt) != s || int(r.First) != b || r.Last < r.First || int(r.Last) >= len(prog.Stmts[s].Blocks) || rt.Serial(i) != s {
			t.Fatalf("%s: task %d holds blocks %d..%d of statement %d on chain %d, want a run of statement %d from block %d", name, i, r.First, r.Last, r.Stmt, rt.Serial(i), s, b)
		}
		for g := len(runOf); g < len(grains) && grains[g].Stmt == r.Stmt && grains[g].Last <= r.Last; g++ {
			if grains[g].First < r.First {
				t.Fatalf("%s: task %d splits grain %d", name, i, g)
			}
			runOf = append(runOf, i)
		}
		b = int(r.Last) + 1
		skipDone()
		if perChain[r.Stmt]++; perChain[r.Stmt] > maxChainTasks {
			t.Fatalf("%s: statement %d has more than %d chain tasks", name, r.Stmt, maxChainTasks)
		}
		for _, q := range preds[i] {
			if q >= i {
				t.Fatalf("%s: edge %d -> %d is a self or backward edge", name, q, i)
			}
			if rt.Serial(q) == rt.Serial(i) && q != i-1 {
				t.Fatalf("%s: task %d waits on task %d of its own chain, not the one before", name, i, q)
			}
		}
	}
	if s != len(prog.Stmts) || len(runOf) != len(grains) {
		t.Fatalf("%s: runs end at block %d of statement %d, holding %d of %d grains", name, b, s, len(runOf), len(grains))
	}
	for _, e := range prog.PrecedenceEdges() {
		from, to := runOf[e[0]], runOf[e[1]]
		implied := from == to
		for _, q := range preds[to] {
			implied = implied || rt.Serial(q) == rt.Serial(from) && q >= from
		}
		if !implied {
			t.Fatalf("%s: grain edge %d -> %d (task %d -> %d) is not implied by %v", name, e[0], e[1], from, to, preds[to])
		}
	}
}
