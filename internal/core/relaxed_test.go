package core

import (
	"strings"
	"testing"

	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/scop"
)

// buildOverwriteScop builds a two-nest program whose source writes
// every cell twice: S writes A[i/2] for i in [0, 2n), so cell c's
// final writer is iteration 2c+1; T reads A[i].
func buildOverwriteScop(t *testing.T, n int) *scop.SCoP {
	t.Helper()
	b := scop.NewBuilder("overwrite")
	b.Array("A", 1).Array("B", 1)
	b.Stmt("S", aff.RectDomain("S", 2*n)).
		WritesOverwriting("A", aff.FloorDiv(aff.Var(1, 0), 2))
	b.Stmt("T", aff.RectDomain("T", n)).
		Writes("B", aff.Var(1, 0)).
		Reads("A", aff.Var(1, 0))
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestRelaxedPipelineMapLastWriter(t *testing.T) {
	sc := buildOverwriteScop(t, 6)
	s, tgt := sc.Statement("S"), sc.Statement("T")
	pm, err := PipelineMapRelaxed(s.Write.Rel, tgt.Reads[0].Rel)
	if err != nil {
		t.Fatal(err)
	}
	// Cell c's final writer is S[2c+1], so finishing S through 2c+1
	// enables T through c.
	for c := 0; c < 6; c++ {
		if !pm.Contains(isl.NewVec(2*c+1), isl.NewVec(c)) {
			t.Errorf("pipeline map missing S[%d] -> T[%d]:\n%v", 2*c+1, c, pm)
		}
	}
	// The first (non-final) writer of a cell must NOT enable its
	// reader.
	if pm.Contains(isl.NewVec(2), isl.NewVec(1)) {
		t.Error("non-final writer S[2] wrongly enables T[1]")
	}
	if pm.Card() != 6 {
		t.Errorf("card = %d, want 6", pm.Card())
	}
}

func TestRelaxedReducesToStrictOnInjective(t *testing.T) {
	// For an injective write both formulas agree.
	b := scop.NewBuilder("inj")
	b.Array("A", 2).Array("B", 2)
	b.Stmt("S", aff.RectDomain("S", 5, 5)).
		Writes("A", aff.Var(2, 0), aff.Var(2, 1))
	b.Stmt("T", aff.RectDomain("T", 5, 5)).
		Writes("B", aff.Var(2, 0), aff.Var(2, 1)).
		Reads("A", aff.Var(2, 1), aff.Var(2, 0)) // transposed read
	sc := b.MustBuild()
	s, tgt := sc.Statement("S"), sc.Statement("T")
	strict, err := PipelineMap(s.Write.Rel, tgt.Reads[0].Rel)
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := PipelineMapRelaxed(s.Write.Rel, tgt.Reads[0].Rel)
	if err != nil {
		t.Fatal(err)
	}
	if !strict.Equal(relaxed) {
		t.Fatalf("strict and relaxed differ on injective writes:\n%v\n%v", strict, relaxed)
	}
}

func TestDetectRequiresOptInForOverwrites(t *testing.T) {
	sc := buildOverwriteScop(t, 4)
	_, err := Detect(sc, Options{})
	if err == nil || !strings.Contains(err.Error(), "AllowOverwrites") {
		t.Fatalf("err = %v", err)
	}
	info, err := Detect(sc, Options{AllowOverwrites: true})
	if err != nil {
		t.Fatal(err)
	}
	tInfo := info.Stmt("T")
	if len(tInfo.InDeps) != 1 {
		t.Fatalf("T InDeps = %d", len(tInfo.InDeps))
	}
	// T's block c must wait (at least) for the S block containing the
	// final writer 2c+1.
	q := info.InDepRel(tInfo, tInfo.InDeps[0])
	sE := info.Stmt("S").E
	for c := 0; c < 4; c++ {
		deps := q.Lookup(isl.NewVec(c))
		if len(deps) != 1 {
			t.Fatalf("T[%d] has %d deps", c, len(deps))
		}
		want := sE.Image(isl.NewVec(2*c + 1))
		if deps[0].Cmp(want) < 0 {
			t.Errorf("T[%d] waits for %v, needs at least %v", c, deps[0], want)
		}
	}
}

func TestValidateRejectsUndeclaredOverwrite(t *testing.T) {
	b := scop.NewBuilder("x")
	b.Array("A", 1)
	b.Stmt("S", aff.RectDomain("S", 4)).
		Writes("A", aff.FloorDiv(aff.Var(1, 0), 2))
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "WritesOverwriting") {
		t.Fatalf("err = %v", err)
	}
}
