package polypipe

import (
	"testing"
)

// TestSessionHybridScheduleMatchesSequential runs the pipelined mode —
// static block order within a statement, dynamic across statements —
// through a session and checks it against sequential and the
// runtime.chain_fused counter.
func TestSessionHybridScheduleMatchesSequential(t *testing.T) {
	p := Listing3(32)
	sess := NewSession(WithWorkers(2), WithRegistry(NewRegistry()))
	want, err := sess.Run(ModeSequential, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(ModePipelined, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executor != "pipeline" {
		t.Fatalf("executor = %q", res.Executor)
	}
	if res.Hash != want.Hash {
		t.Fatalf("pipelined hash %x, want %x", res.Hash, want.Hash)
	}
	if res.ChainFused == 0 {
		t.Fatal("no edge resolved by chain order on listing3")
	}
	if got := sess.Registry().Snapshot().Counter("runtime.chain_fused"); got < res.ChainFused {
		t.Fatalf("runtime.chain_fused = %d, want >= %d", got, res.ChainFused)
	}
}

func TestSessionAutotuneRunsAndCaches(t *testing.T) {
	p, err := Table9Program("P4", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	sess := NewSession(WithWorkers(2), WithAutotune(6), WithRegistry(reg))
	res, err := sess.Run(ModePipelined, p)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := sess.Run(ModeSequential, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash != seq.Hash {
		t.Fatalf("autotuned hash %x, want %x", res.Hash, seq.Hash)
	}
	snap := reg.Snapshot()
	iters := snap.Counter("autotune.iterations")
	if iters < 1 || iters > 6 {
		t.Fatalf("autotune.iterations = %d", iters)
	}
	chosen := snap.Gauge("autotune.block_iters_chosen")
	if chosen < 1 {
		t.Fatalf("autotune.block_iters_chosen = %d", chosen)
	}
	// A second run must reuse the tuned choice without re-searching.
	if _, err := sess.Run(ModePipelined, p); err != nil {
		t.Fatal(err)
	}
	if again := reg.Snapshot().Counter("autotune.iterations"); again != iters {
		t.Fatalf("second run re-tuned: iterations %d → %d", iters, again)
	}
}

func TestSessionAutotuneExplicit(t *testing.T) {
	p := Listing1(48)
	sess := NewSession(WithWorkers(2))
	res, err := sess.Autotune(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chosen < 1 || len(res.Samples) != res.Evals {
		t.Fatalf("result = %+v", res)
	}
	if res.Baseline.ChainFused == 0 {
		t.Fatal("autotune measured no edges resolved by chain order")
	}
	if res.Speedup() <= 0 {
		t.Fatalf("Speedup = %v", res.Speedup())
	}
}
