package ir

import (
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/isl"
	"repro/internal/isl/aff"
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
}

func TestFusePass(t *testing.T) {
	rec := obs.NewRecorder()
	opt := Options{Workers: 2, FuseThreshold: 64, Obs: rec}
	before, _ := lowerSrc(t, listing1Src, "none", Options{Workers: 2})
	p, sc := lowerSrc(t, listing1Src, "fuse", opt)
	if len(p.Tasks) >= len(before.Tasks) {
		t.Fatalf("fusion did not reduce tasks: %d -> %d", len(before.Tasks), len(p.Tasks))
	}
	fused := rec.Snapshot().Counters["ir.blocks_fused"]
	if int(fused) != len(before.Tasks)-len(p.Tasks) {
		t.Fatalf("ir.blocks_fused = %d, want %d", fused, len(before.Tasks)-len(p.Tasks))
	}
	multi := 0
	for i := range p.Tasks {
		if n := len(p.Tasks[i].Units); n > 1 {
			multi++
			if iters := p.Tasks[i].Iters(); iters > opt.FuseThreshold {
				t.Fatalf("fused task %d has %d iters, threshold %d", i, iters, opt.FuseThreshold)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no multi-unit tasks after fusion")
	}
	checkAgainstInterp(t, p, sc)
}

// TestHoistPassMatchesRuntime proves the compile-time address
// resolution is the runtime.Builder resolution: without fusion, the
// hoisted CSR must be identical, element for element, to the DAG the
// in-process runtime lowers from the same task program.
func TestHoistPassMatchesRuntime(t *testing.T) {
	rec := obs.NewRecorder()
	p, sc := lowerSrc(t, listing1Src, "hoist", Options{Workers: 2, Obs: rec})
	if p.CSR == nil {
		t.Fatal("hoist pass did not resolve the CSR")
	}
	if rec.Snapshot().Counters["ir.addrs_hoisted"] == 0 {
		t.Fatal("ir.addrs_hoisted not recorded")
	}

	// Re-lower the same program and compare against the runtime DAG.
	scRef, err := lang.Parse("ir", listing1Src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := core.Detect(scRef, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := codegen.CompileForEmission(info)
	if err != nil {
		t.Fatal(err)
	}
	rt := tp.Lower()
	if rt.NumTasks() != len(p.Tasks) {
		t.Fatalf("task counts differ: runtime %d, ir %d", rt.NumTasks(), len(p.Tasks))
	}
	for i := 0; i < rt.NumTasks(); i++ {
		if got, want := p.CSR.Indeg0[i], int32(rt.Indegree0(i)); got != want {
			t.Fatalf("task %d indegree %d != runtime %d", i, got, want)
		}
		got := p.CSR.Succs[p.CSR.SuccOff[i]:p.CSR.SuccOff[i+1]]
		want := rt.SuccsOf(i)
		if len(got) != len(want) {
			t.Fatalf("task %d successor count %d != runtime %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("task %d successor %d: %d != runtime %d", i, k, got[k], want[k])
			}
		}
	}
	if len(p.CSR.Roots) != len(rt.Roots()) {
		t.Fatalf("root count %d != runtime %d", len(p.CSR.Roots), len(rt.Roots()))
	}
	checkAgainstInterp(t, p, sc)
}

// TestHoistAfterFuse checks the resolved DAG of a fused program stays
// acyclic-consistent: every edge points forward in creation order and
// internal (intra-task) producer→consumer addresses create no
// self-edges.
func TestHoistAfterFuse(t *testing.T) {
	p, sc := lowerSrc(t, listing1Src, "fuse,hoist", Options{Workers: 2, FuseThreshold: 64})
	if p.CSR == nil {
		t.Fatal("no CSR after fuse,hoist")
	}
	for i := range p.Tasks {
		for _, s := range p.CSR.Succs[p.CSR.SuccOff[i]:p.CSR.SuccOff[i+1]] {
			if int(s) == i {
				t.Fatalf("task %d has a self-edge", i)
			}
			if int(s) < i {
				t.Fatalf("edge %d -> %d points backward", i, s)
			}
		}
	}
	checkAgainstInterp(t, p, sc)
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
			if p.CSR == nil {
				t.Fatal("full pipeline left CSR unresolved")
			}
			checkAgainstInterp(t, p, sc)
		})
	}
}

func TestDumpListsProgram(t *testing.T) {
	p, _ := lowerSrc(t, listing1Src, "all", Options{Workers: 2})
	dump := p.String()
	for _, want := range []string{"program \"ir\"", "passes: fuse, hoist, specialize, narrow", "stmt S", "stmt R", "task 0", "csr: edges="} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}
