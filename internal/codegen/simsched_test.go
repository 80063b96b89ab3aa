package codegen_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/fuzzscop"
	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/simsched"
)

// TestSimulatorDAGIsPerBlockIR: the task DAG simsched.MeasureCompiled
// replays — one task per grain, its dependencies from PrecedenceEdges —
// is, edge for edge and in order, the per-grain chain program's
// Edges(), over Table 9 P1–P10 at n = 16, an nmm chain and shifted
// random SCoPs, at MinBlockIters 1 and 4.
func TestSimulatorDAGIsPerBlockIR(t *testing.T) {
	var progs []*kernels.Program
	for _, spec := range kernels.Table9 {
		progs = append(progs, interp.Programify(kernels.BuildTable9(spec, 16, 1).SCoP))
	}
	progs = append(progs, kernels.MMChain(3, 6, kernels.GMM))
	for seed := int64(1); seed <= 20; seed++ {
		progs = append(progs, interp.Programify(fuzzscop.Random(rand.New(rand.NewSource(seed)), fuzzscop.Config{Shifted: seed%2 == 0})))
	}
	for k, p := range progs {
		info, err := core.Detect(p.SCoP, core.Options{})
		if err != nil {
			t.Fatalf("%d:%s: %v", k, p.Name, err)
		}
		for _, mbi := range []int{1, 4} {
			name := fmt.Sprintf("%d:%s mbi=%d", k, p.Name, mbi)
			prog, err := codegen.CompileWithOptions(info, codegen.CompileOptions{MinBlockIters: mbi})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tasks, _ := simsched.MeasureCompiled(p, prog, 0)
			want, _ := prog.PerBlockIR().Edges()
			var got [][2]int
			for i, task := range tasks {
				for _, d := range task.Deps {
					got = append(got, [2]int{d, i})
				}
			}
			if len(tasks) != prog.NumTasks() || !slices.Equal(got, want) {
				t.Fatalf("%s: %d tasks, edges %v; per-block program %d tasks, edges %v", name, len(tasks), got, prog.NumTasks(), want)
			}
		}
	}
}
