package kernels_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/exec"
	"repro/internal/isl"
	"repro/internal/kernels"
)

func TestGridBasics(t *testing.T) {
	g := kernels.NewGrid(4)
	g.Set(1, 2, 3.5)
	if g.At(1, 2) != 3.5 {
		t.Fatal("At/Set broken")
	}
	if len(g.Row(1)) != 4 || g.Row(1)[2] != 3.5 {
		t.Fatal("Row broken")
	}
	h := g.Hash()
	g.Set(0, 0, 1)
	if g.Hash() == h {
		t.Fatal("hash insensitive to change")
	}
	c := g.Clone()
	if !c.Equal(g) {
		t.Fatal("clone not equal")
	}
	c.Set(3, 3, -1)
	if c.Equal(g) {
		t.Fatal("clone aliases")
	}
}

func TestGridSeedDeterministic(t *testing.T) {
	a, b := kernels.NewGrid(6), kernels.NewGrid(6)
	a.SeedDeterministic(9)
	b.SeedDeterministic(9)
	if !a.Equal(b) {
		t.Fatal("seeding not deterministic")
	}
	b.SeedDeterministic(10)
	if a.Equal(b) {
		t.Fatal("different seeds identical")
	}
}

func TestTable9SpecsWellFormed(t *testing.T) {
	if len(kernels.Table9) != 10 {
		t.Fatalf("Table9 has %d programs", len(kernels.Table9))
	}
	for _, spec := range kernels.Table9 {
		if len(spec.Nums) != len(spec.Reads) {
			t.Errorf("%s: %d nums but %d read lists", spec.Name, len(spec.Nums), len(spec.Reads))
		}
		if len(spec.Reads[0]) != 0 {
			t.Errorf("%s: first nest has cross reads", spec.Name)
		}
		for k, reads := range spec.Reads {
			for _, r := range reads {
				if r.Src < 1 || r.Src > k {
					t.Errorf("%s nest %d: read of future/invalid array A%d", spec.Name, k+1, r.Src)
				}
			}
		}
	}
	if _, ok := kernels.T9SpecByName("P7"); !ok {
		t.Error("P7 lookup failed")
	}
	if _, ok := kernels.T9SpecByName("P11"); ok {
		t.Error("P11 lookup succeeded")
	}
	if _, err := kernels.Table9Program("nope", 8, 2); err == nil {
		t.Error("expected error for unknown program")
	}
	for _, n := range []int{-1, 0, 4, 7} {
		if _, err := kernels.Table9Program("P1", n, 2); err == nil {
			t.Errorf("Table9Program(P1, %d): expected error below n = 8", n)
		}
	}
}

func TestTable9ProgramsVerify(t *testing.T) {
	// Every Table 9 program must produce identical results under the
	// sequential, pipelined, and Polly-baseline executors.
	for _, spec := range kernels.Table9 {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p := kernels.BuildTable9(spec, 8, 2)
			if err := exec.Verify(p, 4, core.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

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

func TestTable9NestsAreSerial(t *testing.T) {
	// The paper designs the kernels so Polly cannot parallelize any
	// loop: every nest must be serial in both dimensions.
	for _, spec := range kernels.Table9 {
		p := kernels.BuildTable9(spec, 8, 2)
		if got := parallelizableNests(p); got != 0 {
			t.Errorf("%s: %d parallelizable nests, want 0", spec.Name, got)
		}
	}
}

func TestTable9PipelineDetected(t *testing.T) {
	// Every consecutive pair listed in the Memory-access column must
	// yield a pipeline map.
	for _, spec := range kernels.Table9 {
		p := kernels.BuildTable9(spec, 12, 2)
		info, err := core.Detect(p.SCoP, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		wantPairs := 0
		seen := map[[2]int]bool{}
		for k, reads := range spec.Reads {
			for _, r := range reads {
				key := [2]int{r.Src, k + 1}
				if !seen[key] {
					seen[key] = true
					wantPairs++
				}
			}
		}
		if len(info.Pairs) != wantPairs {
			t.Errorf("%s: %d pipeline pairs, want %d", spec.Name, len(info.Pairs), wantPairs)
		}
	}
}

func TestMMChainVariants(t *testing.T) {
	for _, variant := range []kernels.Variant{kernels.MM, kernels.MMT, kernels.GMM, kernels.GMMT} {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			t.Parallel()
			p := kernels.MMChain(3, 16, variant)
			if err := exec.Verify(p, 4, core.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMMParallelismStructure(t *testing.T) {
	// mm/mmt: every nest's row loop is parallel; gmm/gmmt: none.
	mm := kernels.MMChain(3, 12, kernels.MM)
	if got := parallelizableNests(mm); got != 3 {
		t.Errorf("mm: %d parallelizable nests, want 3", got)
	}
	gmm := kernels.MMChain(3, 12, kernels.GMM)
	if got := parallelizableNests(gmm); got != 0 {
		t.Errorf("gmm: %d parallelizable nests, want 0", got)
	}
}

func TestMMChainPipelineRowGranular(t *testing.T) {
	p := kernels.MMChain(2, 10, kernels.GMM)
	info, err := core.Detect(p.SCoP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Row-granular: each statement splits into one block per row.
	for _, si := range info.Stmts {
		if len(si.Blocks) != 10 {
			t.Errorf("%s: %d blocks, want 10", si.Stmt.Name, len(si.Blocks))
		}
	}
	g := deps.Analyze(p.SCoP)
	s1, s2 := p.SCoP.Statement("S1"), p.SCoP.Statement("S2")
	if !g.DependsOn(s2, s1) {
		t.Error("S2 should depend on S1")
	}
}

func TestMMTransposedMatchesPlainStructure(t *testing.T) {
	// mm and mmt must have identical dependence structure (only data
	// layout differs) but different results (different operands).
	a := kernels.MMChain(2, 8, kernels.MM)
	b := kernels.MMChain(2, 8, kernels.MMT)
	if parallelizableNests(a) != parallelizableNests(b) {
		t.Error("mm and mmt differ in parallel structure")
	}
}

func TestVariantString(t *testing.T) {
	if kernels.MM.String() != "mm" || kernels.GMMT.String() != "gmmt" {
		t.Fatal("variant names wrong")
	}
	if !strings.Contains(kernels.Variant(9).String(), "9") {
		t.Fatal("unknown variant string")
	}
	if kernels.PatStride2.String() != "A[2i][2j]" {
		t.Fatal("pattern string wrong")
	}
	if !strings.Contains(kernels.Pattern(9).String(), "9") {
		t.Fatal("unknown pattern string")
	}
}

func TestProgramString(t *testing.T) {
	p := kernels.Listing1(8)
	if !strings.Contains(p.String(), "listing1") {
		t.Fatalf("String = %q", p.String())
	}
}

// TestTable9BodiesAllocateNothing pins the Table 9 hot path: a
// statement body and a Reset cost no heap allocation.
func TestTable9BodiesAllocateNothing(t *testing.T) {
	iv := isl.Vec{0, 0}
	for _, spec := range kernels.Table9 {
		p := kernels.BuildTable9(spec, 8, 2)
		for _, st := range p.SCoP.Stmts {
			if a := testing.AllocsPerRun(20, func() { st.Body(iv) }); a != 0 {
				t.Errorf("%s %s: %v allocations per body call", spec.Name, st.Name, a)
			}
		}
		if a := testing.AllocsPerRun(5, p.Reset); a != 0 {
			t.Errorf("%s: %v allocations per Reset", spec.Name, a)
		}
	}
}

func TestResetRestoresHash(t *testing.T) {
	p := kernels.MMChain(2, 8, kernels.MM)
	h := p.Hash()
	exec.Sequential(p)
	p.Reset()
	if p.Hash() != h {
		t.Fatal("Reset did not restore initial state")
	}
}
