package ir

import (
	"fmt"
	"math/rand"
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
	"repro/internal/runtime"
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
			for i := range p.Tasks {
				if len(p.Tasks[i].Units) != 1 {
					t.Fatalf("task %d has %d units before fusion", i, len(p.Tasks[i].Units))
				}
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
	sub, err := ParsePasses("specialize,fuse")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0].Name != "fuse" || sub[1].Name != "specialize" {
		t.Fatalf("subset not canonicalized: %v", []string{sub[0].Name, sub[1].Name})
	}
	if _, err := ParsePasses("fuse,bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown pass not rejected: %v", err)
	}
	// A subset that names no pass is not a spelling of "none".
	for _, spec := range []string{",", " , ,"} {
		if ps, err := ParsePasses(spec); err == nil || !strings.Contains(err.Error(), "names no pass") {
			t.Fatalf("selector %q: %d passes, err %v; want a names-no-pass error", spec, len(ps), err)
		}
	}
	// The task DAG is lowered, not resolved by a pass.
	if _, err := ParsePasses("hoist"); err == nil || !strings.Contains(err.Error(), "have fuse, specialize, narrow") {
		t.Fatalf("hoist not rejected with the pass list: %v", err)
	}
}

func TestFusePass(t *testing.T) {
	rec := obs.NewRecorder()
	opt := Options{Workers: 2, Obs: rec}
	before, _ := lowerSrc(t, listing1Src, "none", Options{Workers: 2})
	p, sc := lowerSrc(t, listing1Src, "fuse", opt)
	if len(before.Tasks) != 51 || len(p.Tasks) != 30 {
		t.Fatalf("listing 1 fused %d -> %d tasks, want 51 -> 30", len(before.Tasks), len(p.Tasks))
	}
	fused := rec.Snapshot().Counters["ir.blocks_fused"]
	if int(fused) != len(before.Tasks)-len(p.Tasks) {
		t.Fatalf("ir.blocks_fused = %d, want %d", fused, len(before.Tasks)-len(p.Tasks))
	}
	multi := 0
	for i := range p.Tasks {
		if n := len(p.Tasks[i].Units); n > 1 {
			multi++
			if iters := p.Tasks[i].Iters(); iters > DefaultFuseThreshold {
				t.Fatalf("fused task %d has %d iters, threshold %d", i, iters, DefaultFuseThreshold)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no multi-unit tasks after fusion")
	}
	checkAgainstInterp(t, p, sc)
}

// chainProgram is a program of one-iteration tasks with the given
// predecessor lists, for exercising the fuse pass's classification.
func chainProgram(preds ...[]int32) *Program {
	p := &Program{}
	for i, ps := range preds {
		p.Tasks = append(p.Tasks, Task{
			Label: fmt.Sprintf("t%d", i),
			Units: []Unit{{First: int32(i), Last: int32(i)}},
			Preds: ps,
		})
	}
	return p
}

// fusedMembers lists, per task of a chainProgram after fusion, the
// original task ids its units came from.
func fusedMembers(p *Program) [][]int32 {
	out := make([][]int32, len(p.Tasks))
	for k := range p.Tasks {
		for _, u := range p.Tasks[k].Units {
			out[k] = append(out[k], u.First)
		}
	}
	return out
}

func TestFuseClassification(t *testing.T) {
	// 0 → 1 → 2 (pure chain), 0 → 3, {2,3} → 4 (join, two
	// predecessors). Task 0 has two single-predecessor successors, 1
	// and 3; the lowest id wins, so 3 keeps its edge and nothing fuses
	// past the join.
	p := chainProgram(nil, []int32{0}, []int32{1}, []int32{0}, []int32{2, 3})
	fusePass(p, Options{})
	if got, want := fmt.Sprint(fusedMembers(p)), "[[0 1 2] [3] [4]]"; got != want {
		t.Fatalf("fused members %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(p.Tasks[0].Preds, p.Tasks[1].Preds, p.Tasks[2].Preds), "[] [0] [0 1]"; got != want {
		t.Fatalf("fused preds %s, want %s", got, want)
	}
	if p.Tasks[0].Label != "t0+2" || p.Tasks[1].Label != "t3" {
		t.Fatalf("labels %q %q, want t0+2 t3", p.Tasks[0].Label, p.Tasks[1].Label)
	}

	// A chain longer than the threshold is cut into runs of at most
	// DefaultFuseThreshold iterations; each cut keeps its one edge.
	preds := [][]int32{nil}
	for i := 1; i < DefaultFuseThreshold+4; i++ {
		preds = append(preds, []int32{int32(i - 1)})
	}
	p = chainProgram(preds...)
	fusePass(p, Options{})
	if len(p.Tasks) != 2 || len(p.Tasks[0].Units) != DefaultFuseThreshold || len(p.Tasks[1].Units) != 4 {
		t.Fatalf("long chain fused into %v", fusedMembers(p))
	}
	if fmt.Sprint(p.Tasks[1].Preds) != "[0]" {
		t.Fatalf("second run preds %v, want [0]", p.Tasks[1].Preds)
	}
}

// dagCase is one program of the DAG corpus, detected under opts.
type dagCase struct {
	name string
	sc   *scop.SCoP
	opts core.Options
}

// dagCorpus is Table 9 P1–P10 at n = 16 and 32, 3mm, and 200 random
// SCoPs, every other one with shifted loop bounds, each detected with
// MinBlockIters 1 and 4. The random programs are built once per
// MinBlockIters value: detection annotates them.
func dagCorpus(t *testing.T) []dagCase {
	t.Helper()
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	var out []dagCase
	for _, mbi := range []int{1, 4} {
		opts := core.Options{MinBlockIters: mbi}
		for _, spec := range kernels.Table9 {
			for _, n := range []int{16, 32} {
				out = append(out, dagCase{fmt.Sprintf("%s_n%d/mbi%d", spec.Name, n, mbi), kernels.BuildTable9(spec, n, 1).SCoP, opts})
			}
		}
		out = append(out, dagCase{fmt.Sprintf("3mm/mbi%d", mbi), kernels.MMChain(3, 6, kernels.MM).SCoP, opts})
		for seed := int64(1); seed <= int64(seeds); seed++ {
			cfg := fuzzscop.Config{Shifted: seed%2 == 0}
			out = append(out, dagCase{fmt.Sprintf("fuzz_%d/mbi%d", seed, mbi), fuzzscop.Random(rand.New(rand.NewSource(seed)), cfg), opts})
		}
	}
	return out
}

// lowerCase detects and compiles one corpus program and lowers it
// twice: without passes and with fusion.
func lowerCase(t *testing.T, c dagCase) (tp *codegen.TaskProgram, plain, fused *Program) {
	t.Helper()
	info, err := core.Detect(c.sc, c.opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	tp, err = codegen.CompileForEmission(info)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if plain, err = Lower(info, tp, Options{}); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if fused, err = Lower(info, tp, Options{}); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	fusePass(fused, Options{})
	return tp, plain, fused
}

// TestLowerPredsMatchRuntime: the paper's per-block DAG — each block's
// data edges, then its serial edge — is, element for element, the one
// runtime.Builder resolves from the §5.4 dependency addresses (last
// writer of each in-address, then the last task of the same
// statement). Without fusion the IR holds one task per chain task,
// covering that task's run of blocks and waiting on its chain-program
// predecessors.
func TestLowerPredsMatchRuntime(t *testing.T) {
	for _, c := range dagCorpus(t) {
		tp, p, _ := lowerCase(t, c)
		_, outs, ins := tp.Addresses()
		b := runtime.NewBuilder(len(tp.Tasks))
		for i := range tp.Tasks {
			b.Add(runtime.Task{Out: outs[i], In: ins[i], Serial: tp.Tasks[i].Stmt.Index})
		}
		ref := b.Build()
		perBlock := make([][]int32, len(tp.Tasks))
		for _, e := range tp.PrecedenceEdges() {
			perBlock[e[1]] = append(perBlock[e[1]], int32(e[0]))
		}
		for i := range tp.Tasks {
			if got, want := fmt.Sprint(perBlock[i]), fmt.Sprint(ref.PredsOf(i)); got != want {
				t.Fatalf("%s: block %d preds %s, runtime %s", c.name, i, got, want)
			}
		}
		rt, runs := tp.Lower(), tp.ChainTasks()
		if len(p.Tasks) != rt.NumTasks() || len(runs) != rt.NumTasks() {
			t.Fatalf("%s: %d tasks, %d runs, chain program %d", c.name, len(p.Tasks), len(runs), rt.NumTasks())
		}
		for i := range p.Tasks {
			u, first, last := &p.Tasks[i].Units[0], &tp.Tasks[runs[i].First], &tp.Tasks[runs[i].Last]
			if u.First != first.First || u.Last != last.Last || !u.To.Eq(last.Leader) {
				t.Fatalf("%s: task %d covers %d..%d to %v, run %d..%d to %v", c.name, i, u.First, u.Last, u.To, first.First, last.Last, last.Leader)
			}
			if got, want := fmt.Sprint(p.Tasks[i].Preds), fmt.Sprint(rt.PredsOf(i)); got != want {
				t.Fatalf("%s: task %d preds %s, chain program %s", c.name, i, got, want)
			}
		}
	}
}

// TestFusedDAGIsQuotient: after fusion the fused tasks partition the
// unfused ones — each holding its members in id order, ordered by
// their first member — and the fused DAG's edge set is exactly the
// unfused DAG's with both ends mapped to their fused task, computed
// here by brute force, self-edges dropped — with no duplicate and no
// backward edge.
func TestFusedDAGIsQuotient(t *testing.T) {
	fusedSome := 0
	corpus := dagCorpus(t)
	for _, c := range corpus {
		_, p, f := lowerCase(t, c)
		if len(f.Tasks) < len(p.Tasks) {
			fusedSome++
		}
		// A unit is identified by its statement and first position.
		orig := map[[2]int32]int32{}
		for i := range p.Tasks {
			u := &p.Tasks[i].Units[0]
			orig[[2]int32{int32(u.Stmt), u.First}] = int32(i)
		}
		group := make([]int32, len(p.Tasks))
		for i := range group {
			group[i] = -1
		}
		held, prevFirst := 0, int32(-1)
		for k := range f.Tasks {
			last := int32(-1)
			for _, u := range f.Tasks[k].Units {
				i, ok := orig[[2]int32{int32(u.Stmt), u.First}]
				if !ok || group[i] >= 0 || i <= last {
					t.Fatalf("%s: fused task %d: unit of task %d (known %v) repeated or out of order", c.name, k, i, ok)
				}
				if last < 0 {
					if i <= prevFirst {
						t.Fatalf("%s: fused task %d starts at task %d, not after %d", c.name, k, i, prevFirst)
					}
					prevFirst = i
				}
				group[i], last = int32(k), i
				held++
			}
		}
		if held != len(p.Tasks) {
			t.Fatalf("%s: fused tasks hold %d of %d tasks", c.name, held, len(p.Tasks))
		}
		want := map[[2]int32]bool{}
		for i := range p.Tasks {
			for _, q := range p.Tasks[i].Preds {
				if group[q] != group[i] {
					want[[2]int32{group[q], group[i]}] = true
				}
			}
		}
		got := map[[2]int32]bool{}
		for k := range f.Tasks {
			for _, q := range f.Tasks[k].Preds {
				e := [2]int32{q, int32(k)}
				if q >= int32(k) {
					t.Fatalf("%s: edge %d -> %d is a self or backward edge", c.name, q, k)
				}
				if got[e] {
					t.Fatalf("%s: duplicate edge %d -> %d", c.name, q, k)
				}
				if !want[e] {
					t.Fatalf("%s: edge %d -> %d is not in the quotient DAG", c.name, q, k)
				}
				got[e] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: fused DAG has %d edges, quotient %d", c.name, len(got), len(want))
		}
	}
	if fusedSome == 0 {
		t.Fatal("no corpus program fused")
	}
	t.Logf("%d of %d programs fused", fusedSome, len(corpus))
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
		for j := range p.Tasks[i].Units {
			u := &p.Tasks[i].Units[j]
			if u.Segs == nil {
				t.Fatalf("task %d unit %d not segmented", i, j)
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
			members := p.Members(u)
			if len(got) != len(members) {
				t.Fatalf("task %d unit %d: segments cover %d points, members %d", i, j, len(got), len(members))
			}
			for k := range got {
				for dd := range got[k] {
					if got[k][dd] != members[k][dd] {
						t.Fatalf("task %d unit %d point %d: segs %v != member %v", i, j, k, got[k], members[k])
					}
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
	for _, want := range []string{"program \"ir\"", "passes: fuse, specialize, narrow", "stmt S", "stmt R", "task 0", "preds=[0]"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}
