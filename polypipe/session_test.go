package polypipe

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gogen"
)

// TestSessionRunModesAgree: every executor mode reproduces the
// sequential hash, and the mode names render.
func TestSessionRunModesAgree(t *testing.T) {
	p := Listing3(24)
	s := NewSession(WithWorkers(4))
	want, err := s.Run(ModeSequential, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModePipelined, ModeParLoop} {
		res, err := s.Run(mode, p)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Hash != want.Hash {
			t.Fatalf("%v: hash %x, sequential %x", mode, res.Hash, want.Hash)
		}
		if strings.HasPrefix(mode.String(), "Mode(") {
			t.Fatalf("mode %d has no name", int(mode))
		}
	}
	// ModeParLoop is the last mode: the number after it names none.
	for _, mode := range []Mode{ModeParLoop + 1, Mode(99)} {
		if _, err := s.Run(mode, p); !errors.Is(err, ErrUnknownMode) {
			t.Fatalf("Run(%v) = %v, want ErrUnknownMode", mode, err)
		}
	}
}

// TestSessionCachedRunsIdentical: a cached session serves repeat and
// content-identical programs from the cache, and the executions still
// verify against the sequential reference.
func TestSessionCachedRunsIdentical(t *testing.T) {
	s := NewSession(WithWorkers(2), WithCache(0), WithRegistry(NewRegistry()))
	first, second := Listing1(32), Listing1(32)

	if err := s.Verify(first); err != nil {
		t.Fatal(err)
	}
	// Verify ran ModePipelined once: one miss, zero hits so far.
	st, ok := s.CacheStats()
	if !ok {
		t.Fatal("session has a cache; CacheStats says otherwise")
	}
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first run: %+v", st)
	}
	// A separately built but content-identical program hits.
	res, err := s.Run(ModePipelined, second)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := s.Run(ModeSequential, second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash != seq.Hash {
		t.Fatalf("cached pipelined run wrong: %x vs %x", res.Hash, seq.Hash)
	}
	if st, _ := s.CacheStats(); st.Hits != 1 {
		t.Fatalf("content-identical program missed the cache: %+v", st)
	}
	// Registry carries the cache counters too.
	if v := s.Registry().Snapshot().Counters["cache.hits"]; v != 1 {
		t.Fatalf("cache.hits on the session registry = %d, want 1", v)
	}
}

// TestSessionDetectBatch: batch results line up with Detect, cached or
// not.
func TestSessionDetectBatch(t *testing.T) {
	a, b := Listing1(16), Listing3(16)
	for _, s := range []*Session{
		NewSession(WithWorkers(2)),
		NewSession(WithWorkers(2), WithCache(0)),
	} {
		infos, errs := s.DetectBatch([]*SCoP{a.SCoP, b.SCoP, a.SCoP})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("item %d: %v", i, err)
			}
		}
		for i, sc := range []*SCoP{a.SCoP, b.SCoP, a.SCoP} {
			want, err := core.Detect(sc, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := core.EqualInfo(want, infos[i]); err != nil {
				t.Fatalf("item %d differs: %v", i, err)
			}
		}
	}
}

// TestSessionContextCancellation: a done session context fails Detect,
// Run, and Simulate instead of computing.
func TestSessionContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, s := range map[string]*Session{
		"plain":  NewSession(WithContext(ctx)),
		"cached": NewSession(WithContext(ctx), WithCache(0)),
	} {
		p := Listing1(8)
		// The typed surface: ErrDetectCanceled wraps the context error,
		// so both errors.Is probes hold.
		canceled := func(err error) bool {
			return errors.Is(err, ErrDetectCanceled) && errors.Is(err, context.Canceled)
		}
		if _, err := s.Detect(p.SCoP); !canceled(err) {
			t.Fatalf("%s Detect: err = %v", name, err)
		}
		if _, err := s.Run(ModePipelined, p); !canceled(err) {
			t.Fatalf("%s Run: err = %v", name, err)
		}
		if _, err := s.Simulate(p, SimConfig{}); !canceled(err) {
			t.Fatalf("%s Simulate: err = %v", name, err)
		}
		_, errs := s.DetectBatch([]*SCoP{p.SCoP, p.SCoP})
		if !canceled(errs[0]) || !canceled(errs[1]) {
			t.Fatalf("%s DetectBatch: errs = %v", name, errs)
		}
	}
}

// TestSessionSimulateConsolidation: Simulate covers the Sim* family —
// multi-point pipelined curves, the baseline, and the potential bound
// — with sane shapes.
func TestSessionSimulateConsolidation(t *testing.T) {
	p := Listing3(24)
	s := NewSession(WithWorkers(2))

	curve, err := s.Simulate(p, SimConfig{Procs: []int{1, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 {
		t.Fatalf("curve has %d points, want 3", len(curve))
	}
	for i, v := range curve {
		if v <= 0 {
			t.Fatalf("point %d: speedup %v", i, v)
		}
	}
	if one, err := s.Simulate(p, SimConfig{}); err != nil || len(one) != 1 {
		t.Fatalf("default Procs: %v %v", one, err)
	}
	if base, err := s.Simulate(p, SimConfig{Mode: ModeParLoop, Procs: []int{2}}); err != nil || len(base) != 1 || base[0] <= 0 {
		t.Fatalf("parloop sim: %v %v", base, err)
	}
	pot, err := s.Simulate(p, SimConfig{Potential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pot) != 1 || pot[0] <= 0 {
		t.Fatalf("potential: %v", pot)
	}
	if _, err := s.Simulate(p, SimConfig{Mode: ModeParLoop, Potential: true}); err == nil {
		t.Fatal("Potential+ParLoop accepted")
	}
	for _, mode := range []Mode{ModePipelined, ModeParLoop} {
		if _, err := s.Simulate(p, SimConfig{Mode: mode, Procs: []int{2, 0}}); err == nil {
			t.Fatalf("mode %v: procs 0 accepted", mode)
		}
	}
}

// TestSessionCoversLegacySurface: every operation the removed free
// functions offered is reachable through one Session, and the compiled
// program (detection + lowered IR) is shared across them.
func TestSessionCoversLegacySurface(t *testing.T) {
	p := Listing1(24)
	s := NewSession(WithWorkers(2))
	seq, err := s.Run(ModeSequential, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(ModePipelined, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash != seq.Hash {
		t.Fatalf("pipelined hash %x vs %x", res.Hash, seq.Hash)
	}
	if err := s.Verify(p); err != nil {
		t.Fatal(err)
	}
	if vs, err := s.Simulate(p, SimConfig{Procs: []int{1, 2}}); err != nil || len(vs) != 2 || vs[1] <= 0 {
		t.Fatalf("Simulate: %v %v", vs, err)
	}
	if vs, err := s.Simulate(p, SimConfig{Mode: ModeParLoop, Procs: []int{2}}); err != nil || vs[0] <= 0 {
		t.Fatalf("ParLoop Simulate: %v %v", vs, err)
	}
	if vs, err := s.Simulate(p, SimConfig{Potential: true}); err != nil || len(vs) != 1 || vs[0] <= 0 {
		t.Fatalf("potential Simulate: %v %v", vs, err)
	}
}

// TestEmitZeroWorkersIsGOMAXPROCS: a worker count of 0 means
// GOMAXPROCS on both emission entry points, so gogen.EmitWith with
// EmitOptions{Workers: 0} and a default session's EmitGo print the
// same program. GOMAXPROCS is raised above 1 so a count clamped to 1
// would show.
func TestEmitZeroWorkersIsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	sc, err := Parse("emit", `
for (i = 0; i < 9; i++)
  S: A[i] = f(A[i]);
for (i = 0; i < 9; i++)
  T: B[i] = g(A[i], B[i]);
`)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	defer s.Close()
	info, err := s.Detect(sc)
	if err != nil {
		t.Fatal(err)
	}
	var lib, session strings.Builder
	if err := gogen.EmitWith(&lib, info, gogen.EmitOptions{Workers: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.EmitGo(&session, sc, EmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if lib.String() != session.String() {
		t.Errorf("gogen.EmitWith(…, {Workers: 0}) and Session.EmitGo(…, EmitOptions{}) differ:\n%s\n---\n%s", lib.String(), session.String())
	}
}

// TestSessionEmitGo: emission through a session serves detection from
// the session cache, records ir.* pass metrics in the session
// registry, produces identical source on repeat calls, and fails with
// the typed errors after Close.
func TestSessionEmitGo(t *testing.T) {
	sc, err := Parse("emit", `
for (i = 0; i < 9; i++)
  S: A[i] = f(A[i]);
for (i = 0; i < 9; i++)
  T: B[i] = g(A[i], B[i]);
`)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(WithWorkers(2), WithCache(0), WithRegistry(NewRegistry()))
	defer s.Close()

	var first, second strings.Builder
	if err := s.EmitGo(&first, sc, EmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.EmitGo(&second, sc, EmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("repeat EmitGo of the same SCoP produced different source")
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["cache.hits"] < 1 {
		t.Errorf("second EmitGo missed the detection cache: hits=%d", snap.Counters["cache.hits"])
	}
	if snap.Gauges["ir.tasks"] <= 0 {
		t.Errorf("ir.* pass metrics missing from session registry: %v", snap.Gauges)
	}

	var unopt strings.Builder
	if err := s.EmitGo(&unopt, sc, EmitOptions{Passes: "none"}); err != nil {
		t.Fatal(err)
	}
	if unopt.String() == first.String() {
		t.Error("Passes selection had no effect on emitted source")
	}
	if err := s.EmitGo(&unopt, sc, EmitOptions{Passes: "bogus"}); err == nil {
		t.Error("unknown pass name accepted")
	}

	s.Close()
	if err := s.EmitGo(&first, sc, EmitOptions{}); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("EmitGo after Close: %v, want ErrSessionClosed", err)
	}
}

// TestSessionOneColdDetectionServesEveryGranularity: a cached session
// that runs at MinBlockIters 4, then 8 detects once —
// one cache miss, one detect.pipeline_maps phase — and compiles each
// granularity from that result.
func TestSessionOneColdDetectionServesEveryGranularity(t *testing.T) {
	p := Listing3(16)
	s := NewSession(WithWorkers(2), WithCache(0), WithRegistry(NewRegistry()),
		WithOptions(Options{MinBlockIters: 4}))
	want, err := s.Run(ModeSequential, p)
	if err != nil {
		t.Fatal(err)
	}
	var tasks []int
	for _, mbi := range []int{4, 8} {
		s.opts.MinBlockIters = mbi
		res, err := s.Run(ModePipelined, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hash != want.Hash {
			t.Fatalf("MinBlockIters=%d: hash %x, want %x", mbi, res.Hash, want.Hash)
		}
		tasks = append(tasks, res.Tasks)
	}
	if tasks[0] <= tasks[1] {
		t.Fatalf("MinBlockIters 4 ran %d chain tasks, 8 ran %d: granularity not applied", tasks[0], tasks[1])
	}
	st, _ := s.CacheStats()
	detections := 0
	for _, sp := range s.PhaseSpans() {
		if sp.Name == "detect.pipeline_maps" {
			detections++
		}
	}
	if st.Misses != 1 || detections != 1 {
		t.Fatalf("%d cache misses, %d detections; want 1 and 1", st.Misses, detections)
	}
}

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
