package deps

import (
	"strings"
	"testing"

	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/kernels"
	"repro/internal/scop"
)

func TestListing1Flow(t *testing.T) {
	sc := kernels.Listing1(20).SCoP
	g := Analyze(sc)
	s, r := sc.Statement("S"), sc.Statement("R")

	if !g.DependsOn(r, s) {
		t.Fatal("R should depend on S")
	}
	if g.DependsOn(s, r) {
		t.Fatal("S should not depend on R (program order)")
	}
	rel := g.Flow(s, r)
	// S[i][2j] -> R[i][j]: e.g. S(3, 4) feeds R(3, 2).
	if !rel.Contains(isl.NewVec(3, 4), isl.NewVec(3, 2)) {
		t.Errorf("flow missing S[3,4] -> R[3,2]; got %d pairs", rel.Card())
	}
	if rel.Contains(isl.NewVec(3, 5), isl.NewVec(3, 2)) {
		t.Error("flow has bogus odd-column pair")
	}
	// Exactly one source write per R read.
	if got, want := rel.Card(), 9*9; got != want {
		t.Errorf("flow card = %d, want %d", got, want)
	}
}

func TestListing1SelfFlow(t *testing.T) {
	sc := kernels.Listing1(20).SCoP
	g := Analyze(sc)
	s := sc.Statement("S")
	// S reads A[i][j] written by itself at the same iteration, and
	// A[i][j+1], A[i+1][j+1] written by *later* iterations; forward
	// flow within S therefore is empty (reads of later-written cells
	// observe original values — anti deps, not flow).
	if g.Flow(s, s) != nil {
		t.Errorf("unexpected forward self-flow: %v", g.Flow(s, s))
	}
	// But conflicts exist, so neither loop is parallel.
	if par := g.ParallelDims(s); par[0] || par[1] {
		t.Errorf("ParallelDims(S) = %v, want all false", par)
	}
}

func TestListing3SourcesTargets(t *testing.T) {
	sc := kernels.Listing3(16).SCoP
	g := Analyze(sc)
	s, r, u := sc.Statement("S"), sc.Statement("R"), sc.Statement("U")

	if got := g.Sources(u); len(got) != 2 || got[0] != s || got[1] != r {
		t.Fatalf("Sources(U) = %v", names(got))
	}
	if got := g.Targets(s); len(got) != 2 || got[0] != r || got[1] != u {
		t.Fatalf("Targets(S) = %v", names(got))
	}
	if got := g.Sources(s); len(got) != 0 {
		t.Fatalf("Sources(S) = %v", names(got))
	}
}

func names(ss []*scop.Statement) []string {
	var out []string
	for _, s := range ss {
		out = append(out, s.Name)
	}
	return out
}

func TestParallelDimsSerialStencil(t *testing.T) {
	sc := kernels.Listing1(16).SCoP
	g := Analyze(sc)
	for _, st := range sc.Stmts {
		par := g.ParallelDims(st)
		if par[0] || par[1] {
			t.Errorf("statement %s: ParallelDims = %v, want all false (anti deps serialize both loops)", st.Name, par)
		}
	}
}

func TestParallelDimsIndependentRows(t *testing.T) {
	// S: A[i][j] = f(B[i][j]) — fully parallel nest.
	b := scop.NewBuilder("rows")
	b.Array("A", 2).Array("B", 2)
	b.Stmt("S", aff.RectDomain("S", 6, 6)).
		Writes("A", aff.Var(2, 0), aff.Var(2, 1)).
		Reads("B", aff.Var(2, 0), aff.Var(2, 1))
	sc := b.MustBuild()
	g := Analyze(sc)
	par := g.ParallelDims(sc.Stmts[0])
	if !par[0] || !par[1] {
		t.Fatalf("ParallelDims = %v, want all true", par)
	}
}

func TestParallelDimsInnerCarried(t *testing.T) {
	// S: A[i][j] = A[i][j-1] + 1 — inner loop carries a flow dep,
	// outer loop is parallel.
	b := scop.NewBuilder("scan")
	b.Array("A", 2)
	b.Stmt("S", aff.NewDomain("S",
		aff.ConstBound(0, 0, 6),
		aff.LoopBound{Lo: aff.Const(1, 1), Hi: aff.Const(1, 6)},
	)).
		Writes("A", aff.Var(2, 0), aff.Var(2, 1)).
		Reads("A", aff.Var(2, 0), aff.Linear(-1, 0, 1))
	sc := b.MustBuild()
	g := Analyze(sc)
	par := g.ParallelDims(sc.Stmts[0])
	if !par[0] || par[1] {
		t.Fatalf("ParallelDims = %v, want [true false]", par)
	}
	// The self-flow relation is non-empty and strictly forward.
	self := g.Flow(sc.Stmts[0], sc.Stmts[0])
	if self == nil {
		t.Fatal("missing self flow")
	}
	self.Foreach(func(i, j isl.Vec) bool {
		if i.Cmp(j) >= 0 {
			t.Errorf("non-forward self-flow pair %v -> %v", i, j)
		}
		return true
	})
}

func TestParallelDimsOuterCarried(t *testing.T) {
	// S: A[i][j] = A[i-1][j] — outer loop carries the dep, inner is
	// parallel.
	b := scop.NewBuilder("cols")
	b.Array("A", 2)
	b.Stmt("S", aff.NewDomain("S",
		aff.LoopBound{Lo: aff.Const(0, 1), Hi: aff.Const(0, 6)},
		aff.ConstBound(1, 0, 6),
	)).
		Writes("A", aff.Var(2, 0), aff.Var(2, 1)).
		Reads("A", aff.Linear(-1, 1, 0), aff.Var(2, 1))
	sc := b.MustBuild()
	g := Analyze(sc)
	par := g.ParallelDims(sc.Stmts[0])
	if par[0] || !par[1] {
		t.Fatalf("ParallelDims = %v, want [false true]", par)
	}
}

func TestIndependentNests(t *testing.T) {
	// Two nests touching disjoint arrays: no cross dependence.
	b := scop.NewBuilder("indep")
	b.Array("A", 1).Array("B", 1).Array("X", 1).Array("Y", 1)
	b.Stmt("S", aff.RectDomain("S", 8)).
		Writes("A", aff.Var(1, 0)).
		Reads("X", aff.Var(1, 0))
	b.Stmt("T", aff.RectDomain("T", 8)).
		Writes("B", aff.Var(1, 0)).
		Reads("Y", aff.Var(1, 0))
	sc := b.MustBuild()
	g := Analyze(sc)
	if g.DependsOn(sc.Stmts[1], sc.Stmts[0]) {
		t.Fatal("independent nests report dependence")
	}
}

func TestCrossHazardsDetectsAnti(t *testing.T) {
	// S reads X; T later writes X — anti hazard.
	b := scop.NewBuilder("anti")
	b.Array("A", 1).Array("X", 1)
	b.Stmt("S", aff.RectDomain("S", 8)).
		Writes("A", aff.Var(1, 0)).
		Reads("X", aff.Var(1, 0))
	b.Stmt("T", aff.RectDomain("T", 8)).
		Writes("X", aff.Var(1, 0)).
		Reads("A", aff.Var(1, 0))
	sc := b.MustBuild()
	err := CrossHazards(sc)
	if err == nil || !strings.Contains(err.Error(), "anti hazard") {
		t.Fatalf("err = %v", err)
	}
}

func TestCrossHazardsDetectsOutput(t *testing.T) {
	b := scop.NewBuilder("output")
	b.Array("A", 1)
	b.Stmt("S", aff.RectDomain("S", 8)).Writes("A", aff.Var(1, 0))
	b.Stmt("T", aff.RectDomain("T", 8)).Writes("A", aff.Var(1, 0))
	sc := b.MustBuild()
	err := CrossHazards(sc)
	if err == nil || !strings.Contains(err.Error(), "output hazard") {
		t.Fatalf("err = %v", err)
	}
}

func TestCrossHazardsCleanProgram(t *testing.T) {
	if err := CrossHazards(kernels.Listing3(12).SCoP); err != nil {
		t.Fatalf("unexpected hazard: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if Flow.String() != "flow" || Anti.String() != "anti" || Output.String() != "output" {
		t.Fatal("Kind strings wrong")
	}
	if got := Kind(9).String(); !strings.Contains(got, "9") {
		t.Fatalf("unknown kind = %q", got)
	}
}
