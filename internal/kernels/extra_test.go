package kernels_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/kernels"
)

func TestJacobiChainVerifiesAndIsParallel(t *testing.T) {
	p := kernels.JacobiChain(14, 3)
	if err := exec.Verify(p, 4, core.Options{}); err != nil {
		t.Fatal(err)
	}
	// Every Jacobi nest is fully parallel (reads only the previous
	// stage's array).
	if got := parallelizableNests(p); got != 3 {
		t.Fatalf("parallelizable nests = %d, want 3", got)
	}
	// Cross-loop pipelining also applies: 3 pipeline pairs chained.
	info, err := core.Detect(p.SCoP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Pairs) != 2 {
		t.Fatalf("pairs = %d, want 2 (J1->J2, J2->J3)", len(info.Pairs))
	}
}

func TestSeidelChainVerifiesAndIsSerial(t *testing.T) {
	p := kernels.SeidelChain(14, 4)
	if err := exec.Verify(p, 4, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := parallelizableNests(p); got != 0 {
		t.Fatalf("parallelizable nests = %d, want 0 (Seidel serializes)", got)
	}
	info, err := core.Detect(p.SCoP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Pairs) != 3 {
		t.Fatalf("pairs = %d, want 3", len(info.Pairs))
	}
}

func TestTriangularChainEndToEnd(t *testing.T) {
	p := kernels.TriangularChain(12)
	s := p.SCoP.Statement("S")
	// Triangular domain: n(n+1)/2 points.
	if got, want := s.Domain.Card(), 12*13/2; got != want {
		t.Fatalf("S domain card = %d, want %d", got, want)
	}
	if err := exec.Verify(p, 4, core.Options{}); err != nil {
		t.Fatal(err)
	}
	info, err := core.Detect(p.SCoP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The identity read gives a per-iteration pipeline: T's blocks are
	// single iterations.
	tInfo := info.Stmt("T")
	if len(tInfo.Blocks) != 12*13/2 {
		t.Fatalf("T blocks = %d", len(tInfo.Blocks))
	}
	if len(tInfo.InDeps) != 1 {
		t.Fatalf("T in-deps = %d", len(tInfo.InDeps))
	}
}

func TestExtraKernelPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { kernels.JacobiChain(2, 1) },
		func() { kernels.SeidelChain(14, 0) },
		func() { kernels.TriangularChain(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
