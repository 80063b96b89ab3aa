package core

import (
	"errors"
	"testing"

	"repro/internal/isl/aff"
	"repro/internal/kernels"
	"repro/internal/scop"
)

// The symbolic-backend contract: DetectSymbolic's materialized result
// is bit-identical to the explicit path's on every SCoP it accepts,
// and Detect with Backend=BackendSymbolic is bit-identical on every
// SCoP, accepted or not (fallback).

func table9Program(t *testing.T, name string, n int) *scop.SCoP {
	t.Helper()
	p, err := kernels.Table9Program(name, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	return p.SCoP
}

// buildOffsetChain exercises the fragment corners the fixed suites
// miss: non-zero write offsets, a shifted collapsing read whose top
// class is cut by the domain edge, and a 2-D nest mixing a strided
// first dimension with a collapsing last dimension.
func buildOffsetChain(t *testing.T) *scop.SCoP {
	t.Helper()
	b := scop.NewBuilder("offsetchain")
	b.Array("B1", 1).Array("B2", 1).Array("C1", 2).Array("C2", 2)
	b.Stmt("S1", aff.RectDomain("S1", 13)).Writes("B1", aff.Linear(2, 1))
	b.Stmt("S2", aff.RectDomain("S2", 20)).
		Writes("B2", aff.Var(1, 0)).
		Reads("B1", aff.FloorDiv(aff.Linear(1, 1), 3))
	b.Stmt("S3", aff.RectDomain("S3", 15, 14)).Writes("C1", aff.Linear(1, 1, 0), aff.Var(2, 1))
	b.Stmt("S4", aff.RectDomain("S4", 9, 17)).
		Writes("C2", aff.Var(2, 0), aff.Var(2, 1)).
		Reads("C1", aff.Linear(0, 2, 0), aff.FloorDiv(aff.Var(2, 1), 2))
	return b.MustBuild()
}

// symbolicPrograms lists SCoPs inside the symbolic fragment, where
// DetectSymbolic must succeed without fallback.
func symbolicPrograms(t *testing.T) []struct {
	name string
	sc   *scop.SCoP
	opts Options
} {
	t.Helper()
	return []struct {
		name string
		sc   *scop.SCoP
		opts Options
	}{
		{"figure4_n16", buildFigure4(t, 16), Options{}},
		{"figure4_n15", buildFigure4(t, 15), Options{}},
		{"figure4_n16_pairwise", buildFigure4(t, 16), Options{PairwiseBlocks: true}},
		{"offsetchain", buildOffsetChain(t), Options{}},
		{"p4_n16", table9Program(t, "P4", 16), Options{}},
		{"p7_n16", table9Program(t, "P7", 16), Options{}},
		{"p10_n16", table9Program(t, "P10", 16), Options{}},
		{"p10_n17", table9Program(t, "P10", 17), Options{}},
	}
}

func TestSymbolicMatchesExplicitInFragment(t *testing.T) {
	for _, tc := range symbolicPrograms(t) {
		si, err := DetectSymbolic(tc.sc, tc.opts)
		if err != nil {
			t.Fatalf("%s: DetectSymbolic rejected an in-fragment program: %v", tc.name, err)
		}
		explicit, err := Detect(tc.sc, tc.opts)
		if err != nil {
			t.Fatalf("%s: explicit Detect: %v", tc.name, err)
		}
		mat := si.Materialize()
		if err := EqualInfo(mat, explicit); err != nil {
			t.Errorf("%s: symbolic result differs: %v", tc.name, err)
		}
		if d1, d2 := infoDigest(mat), infoDigest(explicit); d1 != d2 {
			t.Errorf("%s: digest %s vs explicit %s", tc.name, d1, d2)
		}
		// The aggregate answers must be available without
		// materializing anything.
		if got, want := si.TotalBlocks(), int64(explicit.TotalBlocks()); got != want {
			t.Errorf("%s: TotalBlocks %d, explicit %d", tc.name, got, want)
		}
		var wantEdges int64
		for _, st := range explicit.Stmts {
			for _, dep := range st.InDeps {
				wantEdges += int64(dep.Edges())
			}
		}
		if got := si.TotalDepEdges(); got != wantEdges {
			t.Errorf("%s: TotalDepEdges %d, explicit %d", tc.name, got, wantEdges)
		}
	}
}

// TestSymbolicBackendDispatch runs the full cross-backend suite (which
// includes coarsened, overwriting, and fuzzed programs the symbolic
// fragment excludes) through Detect with the symbolic backend
// selected: fallback must make every result identical to the explicit
// one.
func TestSymbolicBackendDispatch(t *testing.T) {
	progs := crossBackendPrograms(t)
	for _, tc := range symbolicPrograms(t) {
		progs = append(progs, tc)
	}
	for _, tc := range progs {
		explicit, err := Detect(tc.sc, tc.opts)
		if err != nil {
			t.Fatalf("%s: explicit Detect: %v", tc.name, err)
		}
		opts := tc.opts
		opts.Backend = BackendSymbolic
		sym, err := Detect(tc.sc, opts)
		if err != nil {
			t.Fatalf("%s: Detect(Backend=symbolic): %v", tc.name, err)
		}
		if err := EqualInfo(sym, explicit); err != nil {
			t.Errorf("%s: symbolic-backend result differs: %v", tc.name, err)
		}
		if d1, d2 := infoDigest(sym), infoDigest(explicit); d1 != d2 {
			t.Errorf("%s: digest %s vs explicit %s", tc.name, d1, d2)
		}
	}
}

// TestSymbolicIgnoresMinBlockIters: granularity is the plan's, so
// DetectSymbolic at MinBlockIters 4 succeeds and equals the explicit
// backend.
func TestSymbolicIgnoresMinBlockIters(t *testing.T) {
	sc := buildFigure4(t, 16)
	si, err := DetectSymbolic(sc, Options{MinBlockIters: 4})
	if err != nil {
		t.Fatalf("MinBlockIters=4: %v", err)
	}
	explicit, err := Detect(sc, Options{MinBlockIters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := EqualInfo(si.Materialize(), explicit); err != nil {
		t.Errorf("MinBlockIters=4: symbolic result differs from explicit: %v", err)
	}
}

func TestSymbolicRejectsOutsideFragment(t *testing.T) {
	// A read running backwards breaks per-dimension monotonicity.
	b := scop.NewBuilder("backwards")
	b.Array("A", 1).Array("B", 1)
	b.Stmt("S1", aff.RectDomain("S1", 8)).Writes("A", aff.Var(1, 0))
	b.Stmt("S2", aff.RectDomain("S2", 8)).
		Writes("B", aff.Var(1, 0)).
		Reads("A", aff.Linear(7, -1))
	if _, err := DetectSymbolic(b.MustBuild(), Options{}); !errors.Is(err, ErrSymbolicUnsupported) {
		t.Errorf("backwards read: err = %v, want ErrSymbolicUnsupported", err)
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	if _, err := Detect(buildFigure4(t, 16), Options{Backend: "bogus"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}
