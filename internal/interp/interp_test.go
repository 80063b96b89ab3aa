package interp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fuzzscop"
	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/kernels"
	"repro/internal/lang"
	"repro/internal/scop"
)

func TestArrayOffsets(t *testing.T) {
	// Access with a negative index must be covered by the allocation.
	b := scop.NewBuilder("neg")
	b.Array("A", 1).Array("B", 1)
	b.Stmt("S", aff.RectDomain("S", 5)).
		Writes("A", aff.Var(1, 0)).
		Reads("B", aff.Linear(-2, 1)) // B[i-2]: indices -2..2
	sc := b.MustBuild()
	st := NewState(sc)
	arr := st.Array("B")
	st.Reset()
	arr.Set(isl.NewVec(-2), 7.5)
	if arr.At(isl.NewVec(-2)) != 7.5 {
		t.Fatal("negative index broken")
	}
}

func TestArrayOutOfRangePanics(t *testing.T) {
	b := scop.NewBuilder("x")
	b.Array("A", 1)
	b.Stmt("S", aff.RectDomain("S", 3)).Writes("A", aff.Var(1, 0))
	sc := b.MustBuild()
	st := NewState(sc)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.Array("A").At(isl.NewVec(99))
}

func TestResetDeterministic(t *testing.T) {
	b := scop.NewBuilder("x")
	b.Array("A", 2)
	b.Stmt("S", aff.RectDomain("S", 4, 4)).
		Writes("A", aff.Var(2, 0), aff.Var(2, 1))
	sc := b.MustBuild()
	st := NewState(sc)
	st.Reset()
	h1 := st.Hash()
	st.Array("A").Set(isl.NewVec(1, 1), 42)
	if st.Hash() == h1 {
		t.Fatal("hash insensitive")
	}
	st.Reset()
	if st.Hash() != h1 {
		t.Fatal("reset not deterministic")
	}
}

func TestProgramifyListing1DSL(t *testing.T) {
	src := `
for (i = 0; i < 19; i++)
  for (j = 0; j < 19; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for (i = 0; i < 9; i++)
  for (j = 0; j < 9; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
`
	sc, err := lang.Parse("listing1", src)
	if err != nil {
		t.Fatal(err)
	}
	p := Programify(sc)
	if !sc.HasBodies() {
		t.Fatal("bodies not attached")
	}
	if err := exec.Verify(p, 4, core.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestProgramifyBodyIsOrderSensitive(t *testing.T) {
	// Two programs differing only in read order must produce different
	// results — the synthetic body must not commute over its reads, or
	// scheduling bugs could cancel out.
	mk := func(swap bool) uint64 {
		b := scop.NewBuilder("x")
		b.Array("A", 1).Array("B", 1).Array("C", 1)
		sb := b.Stmt("S", aff.RectDomain("S", 6)).Writes("C", aff.Var(1, 0))
		if swap {
			sb.Reads("B", aff.Var(1, 0)).Reads("A", aff.Var(1, 0))
		} else {
			sb.Reads("A", aff.Var(1, 0)).Reads("B", aff.Var(1, 0))
		}
		sc := b.MustBuild()
		p := Programify(sc)
		exec.RunSequential(sc)
		return p.Hash()
	}
	if mk(false) == mk(true) {
		t.Fatal("synthetic body is insensitive to read order")
	}
}

func TestProgramifyDeepNest(t *testing.T) {
	// Depth-3 nests: the paper's prototype was limited to depth 2; this
	// implementation handles arbitrary depth end-to-end.
	b := scop.NewBuilder("deep")
	b.Array("A", 3).Array("B", 3)
	b.Stmt("S", aff.RectDomain("S", 4, 4, 4)).
		Writes("A", aff.Var(3, 0), aff.Var(3, 1), aff.Var(3, 2)).
		Reads("A", aff.Var(3, 0), aff.Var(3, 1), aff.Linear(1, 0, 0, 1))
	b.Stmt("T", aff.RectDomain("T", 4, 4, 4)).
		Writes("B", aff.Var(3, 0), aff.Var(3, 1), aff.Var(3, 2)).
		Reads("A", aff.Var(3, 0), aff.Var(3, 1), aff.Var(3, 2)).
		Reads("B", aff.Var(3, 0), aff.Var(3, 1), aff.Linear(1, 0, 0, 1))
	sc := b.MustBuild()
	p := Programify(sc)
	if err := exec.Verify(p, 4, core.Options{}); err != nil {
		t.Fatal(err)
	}
	info, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Pairs) != 1 {
		t.Fatalf("pairs = %d", len(info.Pairs))
	}
}

func TestUnaccessedArrayAllocated(t *testing.T) {
	b := scop.NewBuilder("x")
	b.Array("A", 1).Array("Z", 2) // Z declared, never touched
	b.Stmt("S", aff.RectDomain("S", 3)).Writes("A", aff.Var(1, 0))
	sc := b.MustBuild()
	st := NewState(sc)
	if st.Array("Z") == nil {
		t.Fatal("unaccessed array missing")
	}
	st.Reset()
	_ = st.Hash()
}

// attachReference installs the per-point reference body: every
// subscript through Expr.Eval into a fresh index vector, every cell
// through Array.At/Set, around the shared FoldRead/Finish/SinkFold.
// The compiled bodies of Attach must agree with it bit for bit.
func attachReference(st *State, sc *scop.SCoP) {
	eval := func(a *scop.AccessRef, iv isl.Vec) isl.Vec {
		idx := make(isl.Vec, len(a.Access.Exprs))
		for d, e := range a.Access.Exprs {
			idx[d] = e.Eval(iv)
		}
		return idx
	}
	for _, s := range sc.Stmts {
		sink := st.sinks[s.Name]
		s.Body = func(iv isl.Vec) {
			acc := float64(AccInit)
			for i := range s.Reads {
				acc = FoldRead(acc, st.Array(s.Reads[i].Array()).At(eval(&s.Reads[i], iv)))
			}
			lin := 0
			for _, x := range iv {
				lin += x
			}
			v := Finish(acc, lin)
			if s.Write != nil {
				st.Array(s.Write.Array()).Set(eval(s.Write, iv), v)
			} else if sink != nil {
				sink.Add(SinkFold(v))
			}
		}
	}
}

// floorDivSCoP exercises the quasi-affine fallback on reads and on a
// write, with floor divisions of negative numerators (so the arrays
// have negative offsets) beside affine subscripts of the same access.
func floorDivSCoP() *scop.SCoP {
	b := scop.NewBuilder("floordiv")
	b.Array("A", 2).Array("B", 1).Array("C", 2)
	b.Stmt("S", aff.RectDomain("S", 8, 6)).
		Writes("A", aff.Var(2, 0), aff.FloorDiv(aff.Linear(1, 0, 2), 2)). // A[i][⌊(2j+1)/2⌋] = A[i][j]
		Reads("B", aff.FloorDiv(aff.Linear(-5, 1, 1), 2)).
		Reads("A", aff.Var(2, 0), aff.Var(2, 1))
	b.Stmt("T", aff.RectDomain("T", 8, 6)).
		Writes("C", aff.Var(2, 0), aff.Var(2, 1)).
		Reads("A", aff.FloorDiv(aff.Var(2, 0), 3), aff.Var(2, 1)).
		Reads("A", aff.Var(2, 0), aff.Var(2, 1).Add(aff.FloorDiv(aff.Linear(-1, 1, 0), 4)).AddConst(-1))
	return b.MustBuild()
}

// bodyHashes runs sc sequentially and pipelined at two workers, first
// with the compiled bodies of Attach, then with the reference bodies,
// and returns the four result hashes in that order.
func bodyHashes(t *testing.T, sc *scop.SCoP) [4]uint64 {
	t.Helper()
	compiled := Programify(sc)
	info, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	prog, err := codegen.Compile(info)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	var h [4]uint64
	h[0] = exec.Sequential(compiled).Hash
	h[1] = exec.RunCompiled(compiled, prog, 2).Hash
	st := NewState(sc)
	attachReference(st, sc)
	ref := &kernels.Program{Name: sc.Name, SCoP: sc, Reset: st.Reset, Hash: st.Hash}
	h[2] = exec.Sequential(ref).Hash
	h[3] = exec.RunCompiled(ref, prog, 2).Hash
	return h
}

// TestCompiledBodyMatchesReference: the compiled bodies agree with the
// per-point reference path, sequentially and pipelined at W = 2, on
// Table 9 P1–P10 at n = 16 and 32, on random SCoPs (every other one
// with shifted loop bounds, so arrays take negative offsets), and on a
// program whose subscripts use floor division.
func TestCompiledBodyMatchesReference(t *testing.T) {
	type tc struct {
		name string
		sc   *scop.SCoP
	}
	var cases []tc
	for _, spec := range kernels.Table9 {
		for _, n := range []int{16, 32} {
			cases = append(cases, tc{fmt.Sprintf("%s_n%d", spec.Name, n), kernels.BuildTable9(spec, n, 1).SCoP})
		}
	}
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cfg := fuzzscop.Config{Shifted: seed%2 == 0}
		cases = append(cases, tc{fmt.Sprintf("fuzz_%d", seed), fuzzscop.Random(rand.New(rand.NewSource(seed)), cfg)})
	}
	cases = append(cases, tc{"floordiv", floorDivSCoP()})
	negative := 0
	for _, c := range cases {
		h := bodyHashes(t, c.sc)
		if h[0] != h[1] || h[0] != h[2] || h[0] != h[3] {
			t.Errorf("%s: compiled seq %x pipe %x, reference seq %x pipe %x", c.name, h[0], h[1], h[2], h[3])
		}
		st := NewState(c.sc)
		for _, name := range st.order {
			if off := st.Array(name).offset; len(off) > 0 && minInt(off) < 0 {
				negative++
				break
			}
		}
	}
	if negative == 0 {
		t.Fatal("no program of the corpus has an array with a negative offset")
	}
}

func minInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// TestSyntheticBodiesAllocateNothing: a sequential run of compiled
// bodies makes no heap allocation at all.
func TestSyntheticBodiesAllocateNothing(t *testing.T) {
	k, err := kernels.Table9Program("P10", 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := Programify(k.SCoP)
	exec.RunSequential(p.SCoP) // materialize the domains' element caches
	if n := testing.AllocsPerRun(10, func() { exec.RunSequential(p.SCoP) }); n != 0 {
		t.Fatalf("RunSequential of P10 n=32 allocates %v times per run, want 0", n)
	}
}

// mustPanic calls f and returns its panic message, failing the test
// when f returns normally.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

// TestCompiledBodyOutOfBoxPanics: every subscript of a compiled access
// keeps its bounds check, affine or quasi-affine, read or write, and
// the panic names the array.
func TestCompiledBodyOutOfBoxPanics(t *testing.T) {
	sc := floorDivSCoP()
	b := scop.NewBuilder("write")
	b.Array("Z", 1)
	b.Stmt("W", aff.RectDomain("W", 4)).Writes("Z", aff.Var(1, 0))
	wr := b.MustBuild()
	Programify(sc)
	Programify(wr)
	for _, c := range []struct {
		body  scop.Body
		point isl.Vec
		array string
	}{
		{sc.Stmts[0].Body, isl.NewVec(10, -5), "access to A"}, // read A[i][j], affine subscript 0
		{sc.Stmts[0].Body, isl.NewVec(0, 99), "access to B"},  // read B[⌊(i+j-5)/2⌋], quasi-affine
		{sc.Stmts[1].Body, isl.NewVec(0, -50), "access to A"}, // read A[⌊i/3⌋][j], affine subscript 1
		{sc.Stmts[1].Body, isl.NewVec(-40, 0), "access to A"}, // read A[⌊i/3⌋][j], quasi-affine subscript 0
		{wr.Stmts[0].Body, isl.NewVec(99), "access to Z"},     // write Z[i]
	} {
		msg := mustPanic(t, func() { c.body(c.point) })
		if !strings.Contains(msg, c.array) || !strings.Contains(msg, "outside allocated") {
			t.Errorf("point %v: panic %q does not name %q", c.point, msg, c.array)
		}
	}
}

// TestAttachRejectsArityMismatch: an access whose subscripts range over
// a different number of variables than the statement's domain fails
// when the body is compiled, naming the statement and the array.
func TestAttachRejectsArityMismatch(t *testing.T) {
	for _, bad := range []aff.Expr{
		aff.Var(1, 0),
		aff.Linear(0, 1, 0, 1),
		aff.FloorDiv(aff.Var(3, 0), 2),
	} {
		b := scop.NewBuilder("arity")
		b.Array("A", 1).Array("B", 1)
		b.Stmt("S", aff.RectDomain("S", 4, 4)).
			Writes("A", aff.Linear(0, 4, 1)).
			Reads("B", aff.Var(2, 1))
		sc := b.MustBuild()
		st := NewState(sc)
		sc.Stmts[0].Reads[0].Access.Exprs[0] = bad
		msg := mustPanic(t, func() { st.Attach(sc) })
		if !strings.Contains(msg, "statement S") || !strings.Contains(msg, "B") {
			t.Errorf("subscript %v: panic %q does not name statement S and array B", bad, msg)
		}
	}
}
