package polypipe

import (
	"runtime"
	"strings"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	p := Listing3(16)
	s := NewSession(WithWorkers(4))
	if err := s.Verify(p); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(ModePipelined, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks == 0 {
		t.Fatal("no tasks created")
	}
	seq, err := s.Run(ModeSequential, p)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Hash != res.Hash {
		t.Fatal("hash mismatch")
	}
	par, err := s.Run(ModeParLoop, p)
	if err != nil {
		t.Fatal(err)
	}
	if par.Hash != res.Hash {
		t.Fatal("parloop hash mismatch")
	}
}

func TestFacadeParseAndReports(t *testing.T) {
	src := `
for (i = 0; i < 9; i++)
  S: A[i] = f(A[i]);
for (i = 0; i < 9; i++)
  T: B[i] = g(A[i]);
`
	sc, err := Parse("tiny", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := NewSession().Detect(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep := PipelineReport(info)
	for _, want := range []string{"S -> T", "T: 9 blocks, in-deps on [S]", "S: 9 blocks, no in-deps"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	tree := ScheduleTree(info)
	if !strings.Contains(tree, "sequence:") || !strings.Contains(tree, "expansion:") {
		t.Errorf("schedule tree rendering wrong:\n%s", tree)
	}
	astOut, err := TransformedAST("tiny_pipelined", info)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(astOut, "task(T): 9 blocks, in-deps on [S]") {
		t.Errorf("AST missing annotation:\n%s", astOut)
	}
}

func TestFacadeLargePairSummary(t *testing.T) {
	p := Listing1(20)
	info, err := NewSession().Detect(p.SCoP)
	if err != nil {
		t.Fatal(err)
	}
	rep := PipelineReport(info)
	if !strings.Contains(rep, "81 pairs") {
		t.Errorf("expected summarized large map:\n%s", rep)
	}
}

func TestFacadeSpeedupRuns(t *testing.T) {
	p := Listing1(16)
	seq, pipe, ratio, err := NewSession(WithWorkers(2)).Speedup(p)
	if err != nil {
		t.Fatal(err)
	}
	if seq <= 0 || pipe <= 0 || ratio <= 0 {
		t.Fatalf("speedup = %v/%v/%f", seq, pipe, ratio)
	}
}

func TestFacadeTrace(t *testing.T) {
	p := Listing3(12)
	a, gantt, err := NewSession(WithWorkers(4)).TracePipelined(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Spans) == 0 {
		t.Fatal("no spans")
	}
	if rows := strings.Count(gantt, "\n"); rows != 3 {
		t.Fatalf("gantt rows = %d:\n%s", rows, gantt)
	}
	if !strings.Contains(gantt, "S") || !strings.Contains(gantt, "U") {
		t.Fatalf("gantt missing statement names:\n%s", gantt)
	}
}

// TestObserveDefaultWorkers: Observe and TraceJSON read a worker count
// of 0 as GOMAXPROCS, like every Session method.
func TestObserveDefaultWorkers(t *testing.T) {
	p := Listing3(12)
	m, err := Observe(p, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("observed on %d workers, want %d", m.Workers, runtime.GOMAXPROCS(0))
	}
	var b strings.Builder
	if err := TraceJSON(&b, p, 0, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "traceEvents") {
		t.Fatalf("trace JSON has no traceEvents: %.200s", b.String())
	}
}

func TestFacadeKernelConstructors(t *testing.T) {
	if _, err := Table9Program("P3", 8, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Table9Program("nope", 8, 2); err == nil {
		t.Fatal("expected error")
	}
	p := MMChain(2, 8, GMMT)
	if p.Name != "2gmmt" {
		t.Fatalf("name = %q", p.Name)
	}
	if err := NewSession(WithWorkers(2)).Verify(p); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := NewBuilder("x")
	if b == nil {
		t.Fatal("nil builder")
	}
}

func TestPotentialSpeedupBounds(t *testing.T) {
	p := Listing3(20)
	// From one measurement, the unbounded (critical-path) schedule
	// dominates every bounded one.
	s, err := NewSession().Simulate(p, SimConfig{Procs: []int{1, 2, 4, 1 << 14}})
	if err != nil {
		t.Fatal(err)
	}
	unbounded := s[len(s)-1]
	if unbounded < 1 {
		t.Fatalf("potential (unbounded) speed-up = %f, want >= 1", unbounded)
	}
	for i, bounded := range s[:len(s)-1] {
		if bounded > unbounded*1.0001 {
			t.Fatalf("bounded speed-up %.3f (point %d) exceeds critical-path bound %.3f", bounded, i, unbounded)
		}
	}
}
