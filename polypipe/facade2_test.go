package polypipe

import (
	"strings"
	"testing"
)

func TestFacadeBuilderSurface(t *testing.T) {
	// Build a program exclusively through the re-exported affine
	// surface.
	data := make([]float64, 10)
	b := NewBuilder("surface")
	b.Array("A", 1).Array("B", 1)
	b.Stmt("S", NewDomain("S", ConstBound(0, 0, 10))).
		Writes("A", Var(1, 0)).
		Reads("A", Linear(-1, 1)).
		Body(func(iv Vec) {
			i := iv[0]
			prev := 0.0
			if i > 0 {
				prev = data[i-1]
			}
			data[i] = prev + float64(i)
		})
	b.Stmt("T", RectDomain("T", 5)).
		Writes("B", Var(1, 0)).
		Reads("A", FloorDiv(Linear(0, 2), 1)). // 2i/1 = 2i
		Body(func(iv Vec) { _ = data[2*iv[0]] })
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Statement("T").ReadsFrom("A")[0].Card() != 5 {
		t.Fatal("builder surface produced wrong access relation")
	}
	if c := Const(0, 7); c.Eval(Vec{}) != 7 {
		t.Fatal("Const re-export broken")
	}
}

func TestFacadeEmitGo(t *testing.T) {
	sc, err := Parse("gen", `
for (i = 0; i < 5; i++)
  S: A[i] = f(A[i]);
for (i = 0; i < 5; i++)
  T: B[i] = g(A[i]);
`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := NewSession().EmitGo(&b, sc, EmitOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "func runPipelined(workers int)") {
		t.Fatal("generated program missing runtime")
	}
}

func TestFacadeTraceSVG(t *testing.T) {
	var b strings.Builder
	if err := NewSession(WithWorkers(2)).TraceSVG(&b, Listing3(12)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "<svg") {
		t.Fatal("not SVG")
	}
}

func TestFacadeParLoopSim(t *testing.T) {
	p := MMChain(2, 12, MM)
	s := NewSession(WithWorkers(2))
	sp, err := s.Simulate(p, SimConfig{Mode: ModeParLoop, Procs: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if sp[0] < 1 {
		t.Fatalf("parloop sim speedup = %f", sp[0])
	}
}

func TestFacadeSCoPJSON(t *testing.T) {
	sc, err := Parse("json", `
for (i = 0; i < 4; i++)
  S: A[i] = f(B[i]);
`)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalSCoP(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSCoP(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "json" || len(back.Stmts) != 1 {
		t.Fatal("round trip broken")
	}
	if _, err := UnmarshalSCoP([]byte("{")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestFacadeErrorPropagation(t *testing.T) {
	// A hazardous SCoP must surface detection errors through every
	// entry point.
	b := NewBuilder("hazard")
	b.Array("A", 1)
	b.Stmt("S", RectDomain("S", 4)).Writes("A", Var(1, 0)).Body(func(Vec) {})
	b.Stmt("T", RectDomain("T", 4)).Writes("A", Var(1, 0)).Body(func(Vec) {})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := &Program{Name: "hazard", SCoP: sc, Reset: func() {}, Hash: func() uint64 { return 0 }}
	s := NewSession(WithWorkers(2))
	if _, err := s.Run(ModePipelined, p); err == nil {
		t.Error("Run accepted hazardous scop")
	}
	if _, err := s.Simulate(p, SimConfig{Procs: []int{2}}); err == nil {
		t.Error("Simulate accepted hazardous scop")
	}
	if _, err := s.Simulate(p, SimConfig{Procs: []int{2, 4}}); err == nil {
		t.Error("multi-proc Simulate accepted hazardous scop")
	}
	if _, _, err := s.TracePipelined(p, 10); err == nil {
		t.Error("TracePipelined accepted hazardous scop")
	}
	if _, _, _, err := s.Speedup(p); err == nil {
		t.Error("Speedup accepted hazardous scop")
	}
	var sb strings.Builder
	if err := s.TraceSVG(&sb, p); err == nil {
		t.Error("TraceSVG accepted hazardous scop")
	}
	if err := s.EmitGo(&sb, sc, EmitOptions{}); err == nil {
		t.Error("EmitGo accepted hazardous scop")
	}
}

func TestParseWithParamsFacade(t *testing.T) {
	sc, err := ParseWithParams("px", `
for (i = 0; i < N; i++)
  S: A[i] = f(A[i]);
`, map[string]int{"N": 7})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Statement("S").Domain.Card() != 7 {
		t.Fatal("binding not applied")
	}
}

func TestBlockReport(t *testing.T) {
	info, err := NewSession().Detect(Listing3(12).SCoP)
	if err != nil {
		t.Fatal(err)
	}
	out := BlockReport(info)
	for _, want := range []string{"S: 36 blocks over 121 iterations", "waits for S[", "... ", "more blocks"} {
		if !strings.Contains(out, want) {
			t.Errorf("block report missing %q:\n%s", want, out)
		}
	}
}
