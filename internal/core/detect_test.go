package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/kernels"
	"repro/internal/scop"
)

// TestPipelineMapPaperExample reproduces the §4.1 worked example: for
// Listing 1 with N=20, the pipeline map between S and R is
// { S[i0, i1] -> R[o0, o1] : i1 = 2*o1, o0 = i0, 0 ≤ i0 ≤ 8, 0 ≤ i1 ≤ 16 }.
func TestPipelineMapPaperExample(t *testing.T) {
	sc := kernels.Listing1(20).SCoP
	s, r := sc.Statement("S"), sc.Statement("R")
	rd := r.ReadsFrom("A")[0]
	pm, err := PipelineMap(s.Write.Rel, rd)
	if err != nil {
		t.Fatal(err)
	}
	want := isl.NewMap(s.Domain.Space(), r.Domain.Space())
	for i0 := 0; i0 <= 8; i0++ {
		for o1 := 0; o1 <= 8; o1++ {
			want.Add(isl.NewVec(i0, 2*o1), isl.NewVec(i0, o1))
		}
	}
	if !pm.Equal(want) {
		t.Fatalf("pipeline map differs from the paper's example\n got: %v\nwant: %v", pm, want)
	}
}

// TestSourceBlockingPaperExample checks the §4.1 blocking-map example:
// iterations S[1,1] and S[1,2] share the block led by S[1,2]; S[1,3]
// and S[1,4] share the block led by S[1,4].
func TestSourceBlockingPaperExample(t *testing.T) {
	sc := kernels.Listing1(20).SCoP
	s, r := sc.Statement("S"), sc.Statement("R")
	pm, err := PipelineMap(s.Write.Rel, r.ReadsFrom("A")[0])
	if err != nil {
		t.Fatal(err)
	}
	v := SourceBlockingMap(s.Domain, pm)
	cases := [][2]isl.Vec{
		{isl.NewVec(1, 1), isl.NewVec(1, 2)},
		{isl.NewVec(1, 2), isl.NewVec(1, 2)},
		{isl.NewVec(1, 3), isl.NewVec(1, 4)},
		{isl.NewVec(1, 4), isl.NewVec(1, 4)},
	}
	for _, c := range cases {
		if got := v.Image(c[0]); !got.Eq(c[1]) {
			t.Errorf("V(%v) = %v, want %v", c[0], got, c[1])
		}
	}
	// Tail rule: iterations after the last pipeline leader (8,16) all
	// join the block led by the domain maximum (18,18).
	for _, iv := range []isl.Vec{isl.NewVec(8, 17), isl.NewVec(9, 0), isl.NewVec(18, 18)} {
		if got := v.Image(iv); !got.Eq(isl.NewVec(18, 18)) {
			t.Errorf("tail V(%v) = %v, want [18, 18]", iv, got)
		}
	}
	// Totality: every domain point has exactly one leader.
	if !v.Domain().Equal(s.Domain) || !v.IsSingleValued() {
		t.Error("V is not a total single-valued blocking map")
	}
}

func TestDetectListing1(t *testing.T) {
	sc := kernels.Listing1(20).SCoP
	info, err := Detect(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Pairs) != 1 {
		t.Fatalf("pairs = %d, want 1", len(info.Pairs))
	}
	rInfo := info.Stmt("R")
	sInfo := info.Stmt("S")
	if rInfo == nil || sInfo == nil {
		t.Fatal("missing statement info")
	}
	// R's only blocking map is the identity-led target blocking (every
	// iteration of R is a leader), so each iteration is its own block.
	if got, want := len(rInfo.Blocks), 9*9; got != want {
		t.Errorf("R blocks = %d, want %d", got, want)
	}
	// Dependency relation: R's block (i, j) waits for S's block (i, 2j).
	if len(rInfo.InDeps) != 1 || rInfo.InDeps[0].Src != sc.Statement("S") {
		t.Fatalf("R InDeps = %+v", rInfo.InDeps)
	}
	q := info.InDepRel(rInfo, rInfo.InDeps[0])
	if got := q.Image(isl.NewVec(3, 4)); !got.Eq(isl.NewVec(3, 8)) {
		t.Errorf("Q_R(3,4) = %v, want [3, 8]", got)
	}
	if got := q.Image(isl.NewVec(0, 0)); !got.Eq(isl.NewVec(0, 0)) {
		t.Errorf("Q_R(0,0) = %v, want [0, 0]", got)
	}
	// S has no in-dependencies.
	if len(sInfo.InDeps) != 0 {
		t.Errorf("S InDeps = %+v", sInfo.InDeps)
	}
	if info.TotalBlocks() != len(sInfo.Blocks)+len(rInfo.Blocks) {
		t.Error("TotalBlocks mismatch")
	}
}

// checkBlockingInvariants verifies a blocking map is total,
// single-valued, monotone, idempotent, and never maps an iteration
// below itself.
func checkBlockingInvariants(t *testing.T, name string, domain *isl.Set, e *isl.Map) {
	t.Helper()
	if !e.Domain().Equal(domain) {
		t.Errorf("%s: blocking map not total", name)
	}
	if !e.IsSingleValued() {
		t.Errorf("%s: blocking map not single-valued", name)
	}
	var prev isl.Vec
	var prevLeader isl.Vec
	for _, v := range domain.Elements() {
		l := e.Image(v)
		if l.Cmp(v) < 0 {
			t.Errorf("%s: E(%v) = %v is below the iteration", name, v, l)
		}
		if !e.Image(l).Eq(l) {
			t.Errorf("%s: E not idempotent at %v: E(E)=%v", name, v, e.Image(l))
		}
		if prev != nil && l.Cmp(prevLeader) < 0 {
			t.Errorf("%s: E not monotone: E(%v)=%v < E(%v)=%v", name, v, l, prev, prevLeader)
		}
		prev, prevLeader = v, l
	}
}

func TestDetectListing3Integration(t *testing.T) {
	sc := kernels.Listing3(16).SCoP
	info, err := Detect(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Pairs: S->R, S->U, R->U.
	if len(info.Pairs) != 3 {
		t.Fatalf("pairs = %d, want 3", len(info.Pairs))
	}
	for _, si := range info.Stmts {
		checkBlockingInvariants(t, si.Stmt.Name, si.Stmt.Domain, si.E)
	}
	// R participates in two pipeline maps (target of S, source of U):
	// its E must be the pointwise lexmin of both pairwise maps.
	r := sc.Statement("R")
	var yFromS, vToU *isl.Map
	for _, p := range info.Pairs {
		switch {
		case p.Dst == r:
			yFromS = p.Y
		case p.Src == r:
			vToU = p.V
		}
	}
	rInfo := info.Stmt("R")
	for _, v := range r.Domain.Elements() {
		want := isl.LexMin(yFromS.Image(v), vToU.Image(v))
		if got := rInfo.E.Image(v); !got.Eq(want) {
			t.Fatalf("E_R(%v) = %v, want lexmin = %v", v, got, want)
		}
	}
	// U depends on both S and R at block level.
	uInfo := info.Stmt("U")
	if len(uInfo.InDeps) != 2 {
		t.Fatalf("U InDeps = %d, want 2", len(uInfo.InDeps))
	}
	// Every in-dependency target must name an actual block leader of
	// its source statement (a task that exists).
	for _, si := range info.Stmts {
		for _, dep := range si.InDeps {
			srcInfo := info.Stmts[dep.Src.Index]
			leaders := srcInfo.E.Range()
			info.InDepRel(si, dep).Foreach(func(_, q isl.Vec) bool {
				if !leaders.Contains(q) {
					t.Errorf("%s: in-dep names non-existent source block %v of %s",
						si.Stmt.Name, q, dep.Src.Name)
				}
				return true
			})
		}
	}
}

// TestDependencyEnablesSafety verifies the semantic guarantee of Eq. 4
// on Listing 3: when the source block named by an in-dependency has
// completed (meaning all source iterations ≤ that leader ran), every
// read that any iteration of the dependent block performs on the
// source's array has already been written.
func TestDependencyEnablesSafety(t *testing.T) {
	sc := kernels.Listing3(12).SCoP
	info, err := Detect(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, si := range info.Stmts {
		for _, dep := range si.InDeps {
			src := dep.Src
			wr := src.Write.Rel
			written := func(upTo isl.Vec) *isl.Set {
				done := src.Domain.Filter(func(v isl.Vec) bool { return v.Cmp(upTo) <= 0 })
				return wr.ApplySet(done)
			}
			allWritten := wr.Range()
			for b, blk := range si.Blocks {
				var qs isl.Vec
				avail := isl.NewSet(wr.OutSpace()) // no dep ⇒ nothing needed
				if q := dep.To[b]; q >= 0 {
					qs = info.Stmts[src.Index].Blocks[q].Leader
					avail = written(qs)
				}
				for _, member := range si.Members(b) {
					for _, rd := range si.Stmt.ReadsFrom(src.Write.Array()) {
						for _, cell := range rd.Lookup(member) {
							if !allWritten.Contains(cell) {
								continue // reads an original value
							}
							if !avail.Contains(cell) {
								t.Fatalf("block %v of %s reads %s%v before its in-dep (%v) makes it available",
									blk.Leader, si.Stmt.Name, src.Write.Array(), cell, qs)
							}
						}
					}
				}
			}
		}
	}
}

func TestDetectRejectsCrossHazard(t *testing.T) {
	b := scop.NewBuilder("hazard")
	b.Array("A", 1)
	b.Stmt("S", aff.RectDomain("S", 4)).Writes("A", aff.Var(1, 0))
	b.Stmt("T", aff.RectDomain("T", 4)).Writes("A", aff.Var(1, 0))
	sc := b.MustBuild()
	_, err := Detect(sc, Options{})
	if err == nil || !strings.Contains(err.Error(), "not pipelinable") {
		t.Fatalf("err = %v", err)
	}
}

func TestPipelineMapRejectsNonInjective(t *testing.T) {
	i := isl.NewSpace("S", 1)
	mem := isl.NewSpace("A", 1)
	wr := isl.NewMap(i, mem)
	wr.Add(isl.NewVec(0), isl.NewVec(0))
	wr.Add(isl.NewVec(1), isl.NewVec(0)) // over-write
	rd := isl.NewMap(isl.NewSpace("T", 1), mem)
	rd.Add(isl.NewVec(0), isl.NewVec(0))
	_, err := PipelineMap(wr, rd)
	if !errors.Is(err, ErrNonInjectiveWrite) {
		t.Fatalf("err = %v", err)
	}
}

func TestPipelineMapRejectsSpaceMismatch(t *testing.T) {
	wr := isl.NewMap(isl.NewSpace("S", 1), isl.NewSpace("A", 1))
	rd := isl.NewMap(isl.NewSpace("T", 1), isl.NewSpace("B", 1))
	if _, err := PipelineMap(wr, rd); err == nil {
		t.Fatal("expected space-mismatch error")
	}
}

func TestDetectIndependentNests(t *testing.T) {
	// No flow deps: each statement becomes one big block, no in-deps.
	b := scop.NewBuilder("indep")
	b.Array("A", 1).Array("B", 1)
	b.Stmt("S", aff.RectDomain("S", 6)).Writes("A", aff.Var(1, 0))
	b.Stmt("T", aff.RectDomain("T", 6)).Writes("B", aff.Var(1, 0))
	sc := b.MustBuild()
	info, err := Detect(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Pairs) != 0 {
		t.Fatalf("pairs = %d", len(info.Pairs))
	}
	for _, si := range info.Stmts {
		if len(si.Blocks) != 1 || si.Blocks[0].Len() != 6 {
			t.Errorf("%s: blocks = %+v", si.Stmt.Name, si.Blocks)
		}
		if len(si.InDeps) != 0 {
			t.Errorf("%s: unexpected in-deps", si.Stmt.Name)
		}
	}
}

func TestBlockIndex(t *testing.T) {
	sc := kernels.Listing1(12).SCoP
	info, _ := Detect(sc, Options{})
	si := info.Stmt("R")
	if got := si.BlockIndex(si.Blocks[3].Leader); got != 3 {
		t.Fatalf("BlockIndex = %d", got)
	}
	if got := si.BlockIndex(isl.NewVec(999, 999)); got != -1 {
		t.Fatalf("BlockIndex missing = %d", got)
	}
}

// TestDetectAllocsProportionalToPairs is detection's complexity guard,
// free of any clock: blocks and in-dependencies are position columns,
// so Detect allocates per statement and per pair — relations, columns,
// block slices — and never per block or per point. Its allocation count
// stays under one line c·(statements + pairs) + c′ at two sizes a factor
// of four apart in blocks; an interned leader, a map insert or a vector
// per block would add at least one allocation per block and break the
// bound at both.
func TestDetectAllocsProportionalToPairs(t *testing.T) {
	if isl.BackendName != "columnar" {
		t.Skipf("the %s oracle backend allocates per element by design", isl.BackendName)
	}
	const perItem, fixed = 64, 400
	for _, n := range []int{16, 32} {
		p, err := kernels.Table9Program("P10", n, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Workers: 1}
		info, err := Detect(p.SCoP, opts)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() { _, _ = Detect(p.SCoP, opts) })
		items := len(info.Stmts) + len(info.Pairs)
		if bound := float64(perItem*items + fixed); allocs > bound {
			t.Errorf("n=%d: Detect made %.0f allocations for %d statements + pairs (%d blocks), bound %.0f",
				n, allocs, items, info.TotalBlocks(), bound)
		}
	}
}
