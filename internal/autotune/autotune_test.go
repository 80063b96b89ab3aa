package autotune

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
)

func TestTuneP4FindsValidGranularity(t *testing.T) {
	p, err := kernels.Table9Program("P4", 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	res, err := Tune(p, Config{Workers: 2, Reps: 1, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Which granularity wins depends on timing; that it is one the
	// search sampled, within [1, ceiling], does not.
	ceiling := 0
	for _, s := range p.SCoP.Stmts {
		ceiling = max(ceiling, s.Domain.Card())
	}
	sampled := false
	for _, s := range res.Samples {
		sampled = sampled || s.BlockIters == res.Chosen
	}
	if !sampled || res.Chosen < 1 || res.Chosen > ceiling {
		t.Fatalf("Chosen = %d, want a sampled granularity in [1, %d]", res.Chosen, ceiling)
	}
	if res.Evals != len(res.Samples) || res.Evals < 1 || res.Evals > DefaultBudget {
		t.Fatalf("Evals = %d, len(Samples) = %d", res.Evals, len(res.Samples))
	}
	if res.Baseline.BlockIters != 1 {
		t.Fatalf("baseline block iters = %d", res.Baseline.BlockIters)
	}
	if res.Best.Elapsed > res.Baseline.Elapsed {
		t.Fatalf("best (%v) worse than baseline (%v)", res.Best.Elapsed, res.Baseline.Elapsed)
	}
	// Memoization: no granularity evaluated twice.
	seen := map[int]bool{}
	for _, s := range res.Samples {
		if seen[s.BlockIters] {
			t.Fatalf("granularity %d evaluated twice", s.BlockIters)
		}
		seen[s.BlockIters] = true
		if s.Tasks <= 0 || s.Elapsed <= 0 {
			t.Fatalf("degenerate sample %+v", s)
		}
	}
	snap := rec.Snapshot()
	if got := snap.Counter("autotune.iterations"); got != int64(res.Evals) {
		t.Fatalf("autotune.iterations = %d, want %d", got, res.Evals)
	}
	if got := snap.Gauge("autotune.block_iters_chosen"); got != int64(res.Chosen) {
		t.Fatalf("autotune.block_iters_chosen = %d, want %d", got, res.Chosen)
	}
	found := false
	for _, ph := range rec.Phases.Spans() {
		if ph.Name == "autotune" {
			found = true
		}
	}
	if !found {
		t.Fatal("no autotune phase span recorded")
	}
	if res.Speedup() <= 0 {
		t.Fatalf("Speedup = %v", res.Speedup())
	}
}

func TestTuneBudgetOne(t *testing.T) {
	p := kernels.Listing3(24)
	res, err := Tune(p, Config{Workers: 2, Budget: 1, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 1 || res.Chosen != 1 {
		t.Fatalf("Evals = %d, Chosen = %d", res.Evals, res.Chosen)
	}
	if res.Converged {
		t.Fatal("a single evaluation cannot have converged")
	}
}

func TestTuneRespectsBaseAndCeiling(t *testing.T) {
	p := kernels.Listing3(32)
	res, err := Tune(p, Config{
		Workers:       2,
		Reps:          1,
		Detect:        core.Options{MinBlockIters: 4},
		MaxBlockIters: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.BlockIters != 4 {
		t.Fatalf("baseline block iters = %d, want 4", res.Baseline.BlockIters)
	}
	for _, s := range res.Samples {
		if s.BlockIters < 1 || s.BlockIters > 8 {
			t.Fatalf("sample outside [1, 8]: %+v", s)
		}
	}
}

// TestTuneHybridMeasuresChainFusion checks every sample reads the
// runtime.chain_fused counter: under the chain executor's static order
// within a statement, each block after a statement's first.
func TestTuneHybridMeasuresChainFusion(t *testing.T) {
	p, err := kernels.Table9Program("P4", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tune(p, Config{Workers: 2, Reps: 1, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		if want := int64(s.Tasks - len(p.SCoP.Stmts)); s.ChainFused != want {
			t.Fatalf("blockIters=%d: chain_fused = %d over %d tasks, want %d", s.BlockIters, s.ChainFused, s.Tasks, want)
		}
	}
}

func TestTuneProfilesAreInternallyConsistent(t *testing.T) {
	p := kernels.Listing1(48)
	res, err := Tune(p, Config{Workers: 2, Reps: 1, Budget: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		if s.Critical <= 0 {
			t.Fatalf("no critical path measured: %+v", s)
		}
		if s.Critical > s.Elapsed*2 {
			// The realized critical path is built from the same spans
			// as the run; it can exceed wall time only by measurement
			// skew, never structurally.
			t.Fatalf("critical path %v vastly exceeds elapsed %v", s.Critical, s.Elapsed)
		}
		if s.QueuePeak < 1 {
			t.Fatalf("queue peak = %d: %+v", s.QueuePeak, s)
		}
	}
}

// TestTuneDetectsOnce: every candidate compiles from one detection, so
// the detect.pipeline_maps phase is recorded once whatever the budget.
func TestTuneDetectsOnce(t *testing.T) {
	p := kernels.Listing1(24)
	for _, budget := range []int{1, 6} {
		rec := obs.NewRecorder()
		res, err := Tune(p, Config{Workers: 2, Reps: 1, Budget: budget, Detect: core.Options{Obs: rec}})
		if err != nil {
			t.Fatal(err)
		}
		detections := 0
		for _, sp := range rec.Phases.Spans() {
			if sp.Name == "detect.pipeline_maps" {
				detections++
			}
		}
		if detections != 1 || res.Evals < min(budget, 2) {
			t.Fatalf("budget %d: %d evals ran %d detections, want 1", budget, res.Evals, detections)
		}
	}
}
