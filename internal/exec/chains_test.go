package exec

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/kernels"
)

// The pipelined executor is a hybrid static/dynamic schedule: static
// block order within a statement, dynamic choice across statements.

// TestHybridScheduleBitIdenticalTable9 is the equivalence proof over
// the full Table 9 corpus: for every program, worker count, and
// blocking granularity, the pipelined run must produce the sequential
// reference's result hash — bit-identical arrays. Run with -race
// -cpu 2,4 to exercise the claim and park paths under contention.
func TestHybridScheduleBitIdenticalTable9(t *testing.T) {
	for _, spec := range kernels.Table9 {
		for _, minIters := range []int{1, 8} {
			p := kernels.BuildTable9(spec, 8, 1)
			want := Sequential(p).Hash
			info, err := core.Detect(p.SCoP, core.Options{})
			if err != nil {
				t.Fatalf("%s b=%d: %v", spec.Name, minIters, err)
			}
			prog, err := codegen.CompileWithOptions(info, codegen.CompileOptions{MinBlockIters: minIters})
			if err != nil {
				t.Fatalf("%s b=%d: %v", spec.Name, minIters, err)
			}
			for _, workers := range []int{1, 2, 4} {
				res := RunCompiled(p, prog, workers)
				if res.Hash != want {
					t.Fatalf("%s b=%d w=%d: pipelined hash %x, want %x", spec.Name, minIters, workers, res.Hash, want)
				}
				if res.Executor != "pipeline" || res.Tasks != prog.NumTasks() {
					t.Fatalf("%s b=%d w=%d: executor %q ran %d of %d tasks", spec.Name, minIters, workers, res.Executor, res.Tasks, prog.NumTasks())
				}
			}
		}
	}
}

// TestHybridScheduleFusesChains asserts that every task after a
// statement's first resolves its serial edge by chain order, and that
// the result reports it, at every granularity the chain plan is cut to.
func TestHybridScheduleFusesChains(t *testing.T) {
	p, err := kernels.Table9Program("P4", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := core.Detect(p.SCoP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, minIters := range []int{1, 2, 4, 8} {
		prog, err := codegen.CompileWithOptions(info, codegen.CompileOptions{MinBlockIters: minIters})
		if err != nil {
			t.Fatal(err)
		}
		res := RunCompiled(p, prog, 2)
		if want := int64(res.Tasks - len(p.SCoP.Stmts)); res.ChainFused != want {
			t.Fatalf("b=%d: ChainFused = %d over %d tasks, want %d", minIters, res.ChainFused, res.Tasks, want)
		}
	}
}

// TestObservedHybridSchedule checks the observed path reports the
// runtime.chain_fused counter, a queue-depth peak, and a critical path
// no longer than the run's makespan.
func TestObservedHybridSchedule(t *testing.T) {
	p := kernels.Listing3(24)
	o, err := PipelinedObserved(p, 2, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Result.Executor != "pipeline-observed" {
		t.Fatalf("executor = %q", o.Result.Executor)
	}
	if o.Result.Hash != Sequential(p).Hash {
		t.Fatal("observed hash differs from sequential")
	}
	if got := o.Snapshot.Counter("runtime.chain_fused"); got != o.Result.ChainFused || got == 0 {
		t.Fatalf("runtime.chain_fused = %d, Result.ChainFused = %d", got, o.Result.ChainFused)
	}
	if len(o.Critical.Tasks) == 0 {
		t.Fatal("no critical path on observed run")
	}
	if o.Critical.Length > o.Analysis.Makespan {
		t.Fatalf("critical path %v exceeds makespan %v", o.Critical.Length, o.Analysis.Makespan)
	}
	if got := o.Snapshot.Gauge("runtime.queue_depth_peak"); got < 1 {
		t.Fatalf("runtime.queue_depth_peak = %d", got)
	}
}
