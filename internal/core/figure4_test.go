package core

import (
	"testing"

	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/scop"
)

// buildFigure4 reconstructs the paper's Figure 4 scenario: statements
// S1 and S2 are both sources of S3, and S3 is the source of S4. S3
// therefore carries two target blocking maps (from S1 and S2) and one
// source blocking map (toward S4); Eq. 3 must pick, per iteration, the
// smallest block among all three so that S4 can start as early as
// possible.
//
// Access pattern (1-D, N iterations each):
//
//	S1 writes A1[i];  S2 writes A2[i]
//	S3 reads A1[i/2] (two iterations share a write: its target
//	blocking map from S1 is coarse, blocks of 2) and A2[3i] (fine),
//	and writes A3[i]
//	S4 reads A3[i], writes A4[i]
func buildFigure4(t *testing.T, n int) *scop.SCoP {
	t.Helper()
	b := scop.NewBuilder("figure4")
	b.Array("A1", 1).Array("A2", 1).Array("A3", 1).Array("A4", 1)
	b.Stmt("S1", aff.RectDomain("S1", n)).Writes("A1", aff.Var(1, 0))
	b.Stmt("S2", aff.RectDomain("S2", 3*n)).Writes("A2", aff.Var(1, 0))
	b.Stmt("S3", aff.RectDomain("S3", n)).
		Writes("A3", aff.Var(1, 0)).
		Reads("A1", aff.FloorDiv(aff.Var(1, 0), 2)).
		Reads("A2", aff.Linear(0, 3))
	b.Stmt("S4", aff.RectDomain("S4", n)).
		Writes("A4", aff.Var(1, 0)).
		Reads("A3", aff.Var(1, 0))
	return b.MustBuild()
}

func TestFigure4OptimalBlocks(t *testing.T) {
	sc := buildFigure4(t, 8)
	info, err := Detect(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// S3 participates in three pipeline maps.
	var maps int
	for _, p := range info.Pairs {
		if p.Src.Name == "S3" || p.Dst.Name == "S3" {
			maps++
		}
	}
	if maps != 3 {
		t.Fatalf("S3 pipeline maps = %d, want 3", maps)
	}
	// The source blocking map toward S4 is per-iteration (S4 reads
	// A3[i] exactly), so Eq. 3 makes every S3 iteration its own block
	// regardless of the coarser target blocking maps from S1/S2.
	s3 := info.Stmt("S3")
	if got := len(s3.Blocks); got != 8 {
		t.Fatalf("S3 blocks = %d, want 8 (optimal = finest)", got)
	}
	// ... and S4's dependence is block-per-block on S3, so S4[j] can
	// start right after S3[j] — the "maximizes the number of blocks of
	// different statements that can run in parallel" claim.
	s4 := info.Stmt("S4")
	var depOnS3 *isl.Map
	for _, d := range s4.InDeps {
		if d.Src.Name == "S3" {
			depOnS3 = info.InDepRel(s4, d)
		}
	}
	if depOnS3 == nil {
		t.Fatal("S4 has no dependence on S3")
	}
	for j := 0; j < 8; j++ {
		if got := depOnS3.Image(isl.NewVec(j)); !got.Eq(isl.NewVec(j)) {
			t.Fatalf("S4[%d] waits for S3 block %v, want [%d]", j, got, j)
		}
	}

	// Ablation: with pairwise-only blocking, S3 is blocked by its
	// FIRST map (the coarse target map from S1), so S4 must wait for
	// coarser S3 blocks — strictly less overlap.
	abl, err := Detect(sc, Options{PairwiseBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(abl.Stmt("S3").Blocks) >= len(s3.Blocks) {
		t.Fatalf("pairwise blocking should be coarser: %d vs %d",
			len(abl.Stmt("S3").Blocks), len(s3.Blocks))
	}
}

func TestFigure4DependencySafety(t *testing.T) {
	sc := buildFigure4(t, 6)
	info, err := Detect(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// S3's in-deps on S1 and S2 must cover its strided reads: block j
	// of S3 reads A1[2j] and A2[3j], so its S1 dep must be ≥ 2j and
	// its S2 dep ≥ 3j.
	s3 := info.Stmt("S3")
	if len(s3.InDeps) != 2 {
		t.Fatalf("S3 in-deps = %d", len(s3.InDeps))
	}
	for _, dep := range s3.InDeps {
		for j := 0; j < 6; j++ {
			q := info.InDepRel(s3, dep).Image(isl.NewVec(j))
			var need int
			switch dep.Src.Name {
			case "S1":
				need = j / 2
			case "S2":
				need = 3 * j
			}
			if q[0] < need {
				t.Errorf("S3[%d] waits for %s[%d], needs >= %d", j, dep.Src.Name, q[0], need)
			}
		}
	}
}
