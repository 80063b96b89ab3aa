package codegen

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzzscop"
	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/kernels"
	"repro/internal/scop"
)

// Regenerate with:
//
//	go test ./internal/codegen -run TestPlanGranularityGolden -update
var update = flag.Bool("update", false, "rewrite testdata/plan_granularity.json from this build's plans")

const granularityGolden = "testdata/plan_granularity.json"

// granularityCorpus is Table 9 P1–P10 at n = 16 and 32, 64 random
// SCoPs each detected with AllowOverwrites and with PairwiseBlocks on
// top, and the four matrix-chain variants.
func granularityCorpus() (names []string, scs []*scop.SCoP, opts []core.Options) {
	add := func(name string, sc *scop.SCoP, o core.Options) {
		names, scs, opts = append(names, name), append(scs, sc), append(opts, o)
	}
	for _, spec := range kernels.Table9 {
		for _, n := range []int{16, 32} {
			add(fmt.Sprintf("%s/n=%d", spec.Name, n), kernels.BuildTable9(spec, n, 1).SCoP, core.Options{})
		}
	}
	for seed := int64(1); seed <= 64; seed++ {
		cfg := fuzzscop.Config{Overwrites: seed%2 == 0, Sink: seed%5 == 0, Shifted: seed%3 == 1}
		sc := fuzzscop.Random(rand.New(rand.NewSource(seed)), cfg)
		add(fmt.Sprintf("fuzz-%d", seed), sc, core.Options{AllowOverwrites: true})
		add(fmt.Sprintf("fuzz-%d/pairwise", seed), sc, core.Options{AllowOverwrites: true, PairwiseBlocks: true})
	}
	for _, v := range []kernels.Variant{kernels.MM, kernels.MMT, kernels.GMM, kernels.GMMT} {
		add(fmt.Sprintf("3%v", v), kernels.MMChain(3, 96, v).SCoP, core.Options{})
	}
	return names, scs, opts
}

// planDigest folds the chain plan of prog — every run as (statement,
// first point, last point, label), the dependency columns, and the
// grain DAG the simulator replays — into a 128-bit digest.
func planDigest(prog *TaskProgram) string {
	d := isl.NewDigest()
	runs := prog.ChainTasks()
	d.WriteInt(len(runs))
	for _, r := range runs {
		si := prog.Stmts[r.Stmt]
		elems := si.Stmt.Domain.Elements()
		d.WriteInt(int(r.Stmt))
		d.WriteVec(elems[si.Blocks[r.First].First])
		d.WriteVec(elems[si.Blocks[r.Last].Last])
		d.WriteString(prog.Label(r))
	}
	cols := prog.Columns()
	for _, col := range [][]int32{cols.Lens, cols.PredOff, cols.PredChain, cols.PredPos} {
		d.WriteInt(len(col))
		for _, x := range col {
			d.WriteInt(int(x))
		}
	}
	d.WriteInt(prog.NumTasks())
	edges := prog.PrecedenceEdges()
	d.WriteInt(len(edges))
	for _, e := range edges {
		d.WriteInt(e[0])
		d.WriteInt(e[1])
	}
	lo, hi := d.Sum128()
	return fmt.Sprintf("%016x%016x", hi, lo)
}

// TestPlanGranularityGolden pins the chain plan at MinBlockIters 1, 4,
// 8 and 32 over granularityCorpus: the runs, their columns, the grain
// count and the grain DAG must equal the committed digests.
func TestPlanGranularityGolden(t *testing.T) {
	names, scs, opts := granularityCorpus()
	got := map[string]string{}
	for k, sc := range scs {
		info, err := core.Detect(sc, opts[k])
		if err != nil {
			t.Fatalf("%s: %v", names[k], err)
		}
		for _, m := range []int{1, 4, 8, 32} {
			prog, err := CompileForEmission(info, CompileOptions{MinBlockIters: m})
			if err != nil {
				t.Fatalf("%s: %v", names[k], err)
			}
			got[fmt.Sprintf("%s/m=%d", names[k], m)] = planDigest(prog)
		}
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(granularityGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(granularityGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d plan digests to %s", len(got), granularityGolden)
		return
	}
	data, err := os.ReadFile(granularityGolden)
	if err != nil {
		t.Fatalf("reading goldens (run with -update to generate): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d plans, corpus has %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: missing from golden file", name)
		} else if g != w {
			t.Errorf("%s: plan digest %s, golden %s", name, g, w)
		}
	}
}

// TestCutGranularity: at MinBlockIters 8 every grain but a statement's
// last holds at least 8 iterations, grains partition the blocks in
// order, and there are fewer of them than blocks.
func TestCutGranularity(t *testing.T) {
	p := kernels.Listing1(20)
	info, err := core.Detect(p.SCoP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileWithOptions(info, CompileOptions{MinBlockIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	grains := prog.Grains()
	next := make([]int32, len(prog.Stmts)) // each statement's next block
	for i, g := range grains {
		if g.First != next[g.Stmt] || g.Last < g.First {
			t.Fatalf("grain %d holds blocks %d..%d of statement %d, want a run from block %d", i, g.First, g.Last, g.Stmt, next[g.Stmt])
		}
		next[g.Stmt] = g.Last + 1
		last := i == len(grains)-1 || grains[i+1].Stmt != g.Stmt
		if n := len(prog.Members(g)); n < 8 && !last {
			t.Errorf("grain %d of statement %d holds %d iterations, want >= 8", i, g.Stmt, n)
		}
	}
	for s, si := range prog.Stmts {
		if int(next[s]) != len(si.Blocks) {
			t.Fatalf("grains of statement %d end at block %d of %d", s, next[s], len(si.Blocks))
		}
	}
	if len(grains) != prog.NumTasks() || len(grains) >= info.TotalBlocks() {
		t.Errorf("%d grains (NumTasks %d), want fewer than the %d blocks", len(grains), prog.NumTasks(), info.TotalBlocks())
	}
}

// TestCutGrainSpanningTail is the regression test for a bug the random
// differential tests found when coarsening was detection's: a grain's
// last block can lie in the dependence-free tail beyond Range(T) of a
// pipeline map although earlier blocks depend on the source. The
// grain must still wait on the source.
func TestCutGrainSpanningTail(t *testing.T) {
	// S1 reads A0[2i-1] over 3 iterations (covers writes up to A0[3]);
	// S2 reads A1[2i-1] over 8 iterations (covers writes up to A1[1]
	// only, so most of S2 is dependence-free tail).
	b := scop.NewBuilder("tailspan")
	b.Array("A0", 1).Array("A1", 1).Array("A2", 1)
	b.Stmt("S0", aff.RectDomain("S0", 7)).Writes("A0", aff.Var(1, 0))
	b.Stmt("S1", aff.RectDomain("S1", 3)).
		Writes("A1", aff.Var(1, 0)).
		Reads("A0", aff.Linear(-1, 2))
	b.Stmt("S2", aff.RectDomain("S2", 8)).
		Writes("A2", aff.Var(1, 0)).
		Reads("A1", aff.Linear(-1, 2))
	info, err := core.Detect(b.MustBuild(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One 8-iteration grain for S2: its last block, led by [7], is in
	// the tail of the S1 -> S2 pipeline map, but members [1..3] read
	// A1 cells, so the run must still wait on S1's.
	prog, err := CompileForEmission(info, CompileOptions{MinBlockIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := int32(info.Stmt("S1").Stmt.Index), int32(info.Stmt("S2").Stmt.Index)
	cols := prog.Columns()
	if cols.Lens[s1] != 1 || cols.Lens[s2] != 1 {
		t.Fatalf("S1, S2 runs = %d, %d, want 1, 1", cols.Lens[s1], cols.Lens[s2])
	}
	r := len(prog.ChainTasks()) - 1 // S2's run, the last task
	if run := prog.ChainTasks()[r]; run.Stmt != s2 || len(prog.Members(run)) != 8 {
		t.Fatalf("last run %+v holds %d iterations, want S2's 8", run, len(prog.Members(run)))
	}
	waits := false
	for e := cols.PredOff[r]; e < cols.PredOff[r+1]; e++ {
		waits = waits || cols.PredChain[e] == s1 && cols.PredPos[e] == 0
	}
	if !waits {
		t.Fatalf("S2's run waits on %v at %v, want S1's run", cols.PredChain[cols.PredOff[r]:cols.PredOff[r+1]], cols.PredPos[cols.PredOff[r]:cols.PredOff[r+1]])
	}
}

// TestCutNoopForMinOne: MinBlockIters 1 is the default plan — one
// grain per block, the same runs and the same columns.
func TestCutNoopForMinOne(t *testing.T) {
	info, err := core.Detect(kernels.Listing3(16).SCoP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	def, err := CompileForEmission(info)
	if err != nil {
		t.Fatal(err)
	}
	one, err := CompileForEmission(info, CompileOptions{MinBlockIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.NumTasks() != info.TotalBlocks() || def.NumTasks() != info.TotalBlocks() {
		t.Fatalf("grains %d (default %d), want the %d blocks", one.NumTasks(), def.NumTasks(), info.TotalBlocks())
	}
	if !slices.Equal(one.ChainTasks(), def.ChainTasks()) || planDigest(one) != planDigest(def) {
		t.Fatal("MinBlockIters=1 changed the plan")
	}
}
