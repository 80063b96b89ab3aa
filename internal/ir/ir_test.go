package ir

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/fuzzscop"
	"repro/internal/interp"
	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/scop"
)

const listing1Src = `
for (i = 0; i < 11; i++)
  for (j = 0; j < 11; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for (i = 0; i < 5; i++)
  for (j = 0; j < 5; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
`

// shiftedSrc reads/writes through a positive shift, so the canonical
// accessed box starts above the origin and the naive storage layout
// carries slack for the narrow pass to reclaim.
const shiftedSrc = `
for (i = 0; i < 6; i++)
  S: A[i+3] = f(A[i+3]);
for (i = 0; i < 6; i++)
  R: B[i] = g(A[i+3], B[i]);
`

// sinkDeadScop builds (programmatically — the DSL cannot express
// either) a SCoP with a dead array D (declared, never accessed) and a
// sink statement K (reads B, writes nothing, accumulates into its
// sink).
func sinkDeadScop(t *testing.T) *scop.SCoP {
	t.Helper()
	n := 8
	b := scop.NewBuilder("sinkdead")
	b.Array("A", 1).Array("B", 1).Array("D", 2)
	b.Stmt("S", aff.RectDomain("S", n)).
		Writes("A", aff.Var(1, 0)).
		Reads("A", aff.Var(1, 0))
	b.Stmt("R", aff.RectDomain("R", n)).
		Writes("B", aff.Var(1, 0)).
		Reads("A", aff.Var(1, 0)).
		Reads("B", aff.Var(1, 0))
	b.Stmt("K", aff.RectDomain("K", n)).
		Reads("B", aff.Var(1, 0))
	return b.MustBuild()
}

// lowerScop detects and lowers an already-built SCoP.
func lowerScop(t *testing.T, sc *scop.SCoP, passes string, opt Options) *Program {
	t.Helper()
	info, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := codegen.CompileForEmission(info)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Lower(info, tp, opt)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := ParsePasses(passes)
	if err != nil {
		t.Fatal(err)
	}
	RunPasses(p, ps, opt)
	return p
}

// lowerSrc parses, detects, and lowers src, applying the selected
// passes.
func lowerSrc(t *testing.T, src, passes string, opt Options) (*Program, *scop.SCoP) {
	t.Helper()
	sc, err := lang.Parse("ir", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := codegen.CompileForEmission(info)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Lower(info, tp, opt)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := ParsePasses(passes)
	if err != nil {
		t.Fatal(err)
	}
	RunPasses(p, ps, opt)
	return p, sc
}

// interpHash runs the interpreter sequentially over sc and returns the
// reference state hash.
func interpHash(t *testing.T, sc *scop.SCoP) uint64 {
	t.Helper()
	p := interp.Programify(sc)
	p.Reset()
	for _, s := range sc.Stmts {
		for _, iv := range s.Domain.Elements() {
			s.Body(iv)
		}
	}
	return p.Hash()
}

// checkAgainstInterp asserts that evaluating the (possibly
// transformed) IR program reproduces the interpreter hash bit for bit,
// including across an emitted-style re-seed/re-run cycle.
func checkAgainstInterp(t *testing.T, p *Program, sc *scop.SCoP) {
	t.Helper()
	want := interpHash(t, sc)
	ev := NewEvaluator(p)
	first, second := ev.RunTwice()
	if first != want {
		t.Fatalf("evaluator hash %x != interpreter hash %x\n%s", first, want, p)
	}
	if second != want {
		t.Fatalf("second-run hash %x != interpreter hash %x (re-seed broken)\n%s", second, want, p)
	}
}

func TestLowerMatchesInterp(t *testing.T) {
	for name, src := range map[string]string{"listing1": listing1Src, "shifted": shiftedSrc} {
		t.Run(name, func(t *testing.T) {
			p, sc := lowerSrc(t, src, "none", Options{Workers: 2})
			if len(p.Tasks) == 0 {
				t.Fatal("no tasks lowered")
			}
			checkAgainstInterp(t, p, sc)
		})
	}
}

func TestParsePasses(t *testing.T) {
	all, err := ParsePasses("")
	if err != nil || len(all) != len(Passes()) {
		t.Fatalf("empty selector: %v, %d passes", err, len(all))
	}
	none, err := ParsePasses("none")
	if err != nil || len(none) != 0 {
		t.Fatalf("none selector: %v, %d passes", err, len(none))
	}
	// Subsets come back in canonical order regardless of spelling.
	sub, err := ParsePasses("narrow,specialize")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0].Name != "specialize" || sub[1].Name != "narrow" {
		t.Fatalf("subset not canonicalized: %v", []string{sub[0].Name, sub[1].Name})
	}
	if _, err := ParsePasses("specialize,bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown pass not rejected: %v", err)
	}
	// A subset that names no pass is not a spelling of "none".
	for _, spec := range []string{",", " , ,"} {
		if ps, err := ParsePasses(spec); err == nil || !strings.Contains(err.Error(), "names no pass") {
			t.Fatalf("selector %q: %d passes, err %v; want a names-no-pass error", spec, len(ps), err)
		}
	}
	// The task DAG is lowered, not resolved by a pass, and its
	// granularity is the chain program's.
	for _, gone := range []string{"hoist", "fuse"} {
		if _, err := ParsePasses(gone); err == nil || !strings.Contains(err.Error(), "have specialize, narrow") {
			t.Fatalf("%s not rejected with the pass list: %v", gone, err)
		}
	}
}

// dagCase is one program of the DAG corpus, compiled at MinBlockIters
// mbi.
type dagCase struct {
	name string
	sc   *scop.SCoP
	mbi  int
}

// dagCorpus is Table 9 P1–P10 at n = 16 and 32, 3mm, and 200 random
// SCoPs, every other one with shifted loop bounds, each compiled with
// MinBlockIters 1 and 4.
func dagCorpus(t *testing.T) []dagCase {
	t.Helper()
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	var out []dagCase
	for _, mbi := range []int{1, 4} {
		for _, spec := range kernels.Table9 {
			for _, n := range []int{16, 32} {
				out = append(out, dagCase{fmt.Sprintf("%s_n%d/mbi%d", spec.Name, n, mbi), kernels.BuildTable9(spec, n, 1).SCoP, mbi})
			}
		}
		out = append(out, dagCase{fmt.Sprintf("3mm/mbi%d", mbi), kernels.MMChain(3, 6, kernels.MM).SCoP, mbi})
		for seed := int64(1); seed <= int64(seeds); seed++ {
			cfg := fuzzscop.Config{Shifted: seed%2 == 0}
			out = append(out, dagCase{fmt.Sprintf("fuzz_%d/mbi%d", seed, mbi), fuzzscop.Random(rand.New(rand.NewSource(seed)), cfg), mbi})
		}
	}
	return out
}

// passSubsets spells every subset of the pipeline as a selector,
// "none" first.
func passSubsets() []string {
	all := Passes()
	var out []string
	for mask := 0; mask < 1<<len(all); mask++ {
		var names []string
		for i, ps := range all {
			if mask&(1<<i) != 0 {
				names = append(names, ps.Name)
			}
		}
		if len(names) == 0 {
			names = []string{"none"}
		}
		out = append(out, strings.Join(names, ","))
	}
	return out
}

// TestLowerBuildsNoRuntimeProgram: ir.Lower reads the chain plan's
// columns and leaves the in-process program unbuilt, so the first
// LowerObserved after it lowers (the codegen.lower_ir phase) instead of
// reusing a program the emission path built.
func TestLowerBuildsNoRuntimeProgram(t *testing.T) {
	p7, err := kernels.Table9Program("P7", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := core.Detect(p7.SCoP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := codegen.CompileForEmission(info)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Lower(info, tp, Options{}); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	tp.LowerObserved(rec)
	var phases []string
	for _, ps := range rec.Phases.Spans() {
		phases = append(phases, ps.Name)
	}
	if !slices.Contains(phases, "codegen.lower_ir") {
		t.Fatalf("phases %v, want codegen.lower_ir", phases)
	}
	if n := rec.Snapshot().Counter("runtime.ir_reuse"); n != 0 {
		t.Fatalf("runtime.ir_reuse = %d, want 0", n)
	}
}

// TestLowerPredsMatchRuntime: under every subset of the passes, the IR
// is the chain program the in-process executor runs: one task per chain
// task, covering that task's run of blocks, and as predecessors exactly
// BuildIR's edges, in its order — the two readers of codegen's columns
// agree. (codegen's checkLoweringAgainstReplay holds the per-block DAG
// to the §5.5 replay of the §5.4 addresses.)
func TestLowerPredsMatchRuntime(t *testing.T) {
	subsets := passSubsets()
	for _, c := range dagCorpus(t) {
		info, err := core.Detect(c.sc, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tp, err := codegen.CompileForEmission(info, codegen.CompileOptions{MinBlockIters: c.mbi})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rt, runs := tp.BuildIR(), tp.ChainTasks()
		want, _ := rt.Edges()
		for _, passes := range subsets {
			p, err := Lower(info, tp, Options{})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			ps, err := ParsePasses(passes)
			if err != nil {
				t.Fatal(err)
			}
			RunPasses(p, ps, Options{})
			if len(p.Tasks) != rt.NumTasks() || len(runs) != rt.NumTasks() {
				t.Fatalf("%s passes=%s: %d tasks, %d runs, chain program %d", c.name, passes, len(p.Tasks), len(runs), rt.NumTasks())
			}
			var got [][2]int
			for i := range p.Tasks {
				u, r := &p.Tasks[i], runs[i]
				blocks := tp.Stmts[r.Stmt].Blocks
				first, last := &blocks[r.First], &blocks[r.Last]
				if u.Stmt != int(r.Stmt) || u.First != first.First || u.Last != last.Last || !u.To.Eq(last.Leader) {
					t.Fatalf("%s passes=%s: task %d covers %d..%d to %v, run %d..%d to %v", c.name, passes, i, u.First, u.Last, u.To, first.First, last.Last, last.Leader)
				}
				for _, q := range u.Preds {
					got = append(got, [2]int{int(q), i})
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s passes=%s: task edges %v, chain program %v", c.name, passes, got, want)
			}
		}
	}
}

func TestSpecializePass(t *testing.T) {
	rec := obs.NewRecorder()
	p, sc := lowerSrc(t, listing1Src, "specialize", Options{Workers: 2, Obs: rec})
	snap := rec.Snapshot()
	if got := snap.Counters["ir.bodies_specialized"]; got != int64(len(p.Stmts)) {
		t.Fatalf("ir.bodies_specialized = %d, want %d", got, len(p.Stmts))
	}
	if snap.Counters["ir.segments"] == 0 {
		t.Fatal("ir.segments not recorded")
	}
	for i := range p.Tasks {
		u := &p.Tasks[i]
		if u.Segs == nil {
			t.Fatalf("task %d not segmented", i)
		}
		// Segments must cover exactly the members, in order.
		var got []isl.Vec
		for _, seg := range u.Segs {
			d := len(seg.Start) - 1
			for k := 0; k < seg.Len; k++ {
				iv := seg.Start.Clone()
				if d >= 0 {
					iv[d] += k
				}
				got = append(got, iv)
			}
		}
		members := p.Members(&u.Unit)
		if len(got) != len(members) {
			t.Fatalf("task %d: segments cover %d points, members %d", i, len(got), len(members))
		}
		for k := range got {
			for dd := range got[k] {
				if got[k][dd] != members[k][dd] {
					t.Fatalf("task %d point %d: segs %v != member %v", i, k, got[k], members[k])
				}
			}
		}
	}
	checkAgainstInterp(t, p, sc)
}

func TestNarrowPass(t *testing.T) {
	rec := obs.NewRecorder()
	before, _ := lowerSrc(t, shiftedSrc, "none", Options{Workers: 2})
	p, sc := lowerSrc(t, shiftedSrc, "narrow", Options{Workers: 2, Obs: rec})
	snap := rec.Snapshot()
	if snap.Counters["ir.extent_cells_saved"] == 0 {
		t.Fatal("shifted accesses should save storage cells")
	}
	for i := range p.Arrays {
		a := &p.Arrays[i]
		if !a.Narrowed() {
			t.Fatalf("array %s not narrowed", a.Name)
		}
		if !a.Written && !a.SeedOnce {
			t.Fatalf("unwritten array %s not marked seed-once", a.Name)
		}
	}
	// A (accessed at i+3, i in [0,6)) must have shed its origin slack.
	ai := p.ArrayIndex["A"]
	bi := before.ArrayIndex["A"]
	if p.Arrays[ai].StorageSize >= before.Arrays[bi].StorageSize {
		t.Fatalf("A storage not reduced: %d -> %d",
			before.Arrays[bi].StorageSize, p.Arrays[ai].StorageSize)
	}
	checkAgainstInterp(t, p, sc)
}

// TestSinkAndDeadArrays covers the two shapes the DSL cannot express:
// a sink statement (no write access, accumulates into a hashed sink)
// and a dead array (declared, never accessed, still seeded and
// hashed). Both must survive the full pipeline with interp parity.
func TestSinkAndDeadArrays(t *testing.T) {
	for _, passes := range []string{"none", "all"} {
		t.Run(passes, func(t *testing.T) {
			rec := obs.NewRecorder()
			sc := sinkDeadScop(t)
			p := lowerScop(t, sc, passes, Options{Workers: 2, Obs: rec})
			if len(p.Sinks) != 1 || p.Sinks[0] != "K" {
				t.Fatalf("sinks = %v, want [K]", p.Sinks)
			}
			di := p.ArrayIndex["D"]
			if p.Arrays[di].Accessed {
				t.Fatal("D should be dead")
			}
			if p.Arrays[di].Size() != 1 {
				t.Fatalf("dead array canonical size %d, want 1", p.Arrays[di].Size())
			}
			if passes == "all" {
				snap := rec.Snapshot()
				if snap.Counters["ir.arrays_dead"] != 1 {
					t.Fatalf("ir.arrays_dead = %d, want 1", snap.Counters["ir.arrays_dead"])
				}
				if !p.Arrays[di].SeedOnce {
					t.Fatal("dead array not marked seed-once")
				}
			}
			checkAgainstInterp(t, p, sc)
		})
	}
}

func TestFullPipelineMatchesInterp(t *testing.T) {
	for name, src := range map[string]string{"listing1": listing1Src, "shifted": shiftedSrc} {
		t.Run(name, func(t *testing.T) {
			p, sc := lowerSrc(t, src, "all", Options{Workers: 4})
			if len(p.Applied) != len(Passes()) {
				t.Fatalf("applied %v", p.Applied)
			}
			checkAgainstInterp(t, p, sc)
		})
	}
}

func TestDumpListsProgram(t *testing.T) {
	p, _ := lowerSrc(t, listing1Src, "all", Options{Workers: 2})
	dump := p.String()
	for _, want := range []string{"program \"ir\"", "passes: specialize, narrow", "stmt S", "stmt R", "task 0", "preds=[0]"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}
