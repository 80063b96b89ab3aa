package codegen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fuzzscop"
	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/runtime"
	"repro/internal/scop"
)

// builderReplay is how BuildIR lowered before it read the columns:
// every task through runtime.Builder, its §5.4 addresses and its
// statement's serial key resolved against the last-writer and
// last-serial tables.
func builderReplay(p *TaskProgram) *runtime.Program {
	_, outs, ins := p.Addresses()
	b := runtime.NewBuilder(len(p.Tasks))
	for i := range p.Tasks {
		b.Add(runtime.Task{Out: outs[i], In: ins[i], Serial: p.Tasks[i].Stmt.Index})
	}
	return b.Build()
}

// replayDataEdges and replaySerialEdges are the map-based DataEdges and
// SerialEdges: each in-address resolved against the last earlier task
// writing it, each serial key against the last earlier task holding it.
func replayDataEdges(p *TaskProgram) [][2]int {
	_, outs, ins := p.Addresses()
	lastWriter := map[int]int{}
	var edges [][2]int
	for i := range p.Tasks {
		for _, addr := range ins[i] {
			if j, ok := lastWriter[addr]; ok {
				edges = append(edges, [2]int{j, i})
			}
		}
		lastWriter[outs[i]] = i
	}
	return edges
}

func replaySerialEdges(p *TaskProgram) [][2]int {
	lastSerial := map[int]int{}
	var edges [][2]int
	for i := range p.Tasks {
		key := p.Tasks[i].Stmt.Index
		if j, ok := lastSerial[key]; ok {
			edges = append(edges, [2]int{j, i})
		}
		lastSerial[key] = i
	}
	return edges
}

// checkLoweringAgainstReplay holds BuildIR's chain columns, through the
// CSR view derived from them, element-equal to the Builder replay, and
// the edge views equal to the map-based ones.
func checkLoweringAgainstReplay(t *testing.T, name string, prog *TaskProgram) {
	t.Helper()
	got, want := prog.BuildIR(), builderReplay(prog)
	if got.NumTasks() != want.NumTasks() || got.NumEdges() != want.NumEdges() || got.NumChains() != want.NumChains() {
		t.Fatalf("%s: %d tasks, %d edges, %d chains; replay %d, %d, %d", name,
			got.NumTasks(), got.NumEdges(), got.NumChains(), want.NumTasks(), want.NumEdges(), want.NumChains())
	}
	for i := 0; i < got.NumTasks(); i++ {
		if !slices.Equal(got.PredsOf(i), want.PredsOf(i)) || !slices.Equal(got.SuccsOf(i), want.SuccsOf(i)) {
			t.Fatalf("%s: task %d preds %v succs %v; replay %v, %v", name, i, got.PredsOf(i), got.SuccsOf(i), want.PredsOf(i), want.SuccsOf(i))
		}
		if got.Indegree0(i) != want.Indegree0(i) || got.Serial(i) != want.Serial(i) {
			t.Fatalf("%s: task %d indegree %d serial %d; replay %d, %d", name, i, got.Indegree0(i), got.Serial(i), want.Indegree0(i), want.Serial(i))
		}
	}
	if !slices.Equal(got.Roots(), want.Roots()) {
		t.Fatalf("%s: roots %v; replay %v", name, got.Roots(), want.Roots())
	}
	if !slices.Equal(prog.DataEdges(), replayDataEdges(prog)) {
		t.Fatalf("%s: DataEdges differ from the address replay", name)
	}
	if !slices.Equal(prog.SerialEdges(), replaySerialEdges(prog)) {
		t.Fatalf("%s: SerialEdges differ from the serial-key replay", name)
	}
}

// oracleInputs is the lowering corpus: Table 9 P1–P10 at n = 16 and
// 32, 3mm, and seeds random SCoPs, a third of them with negative and
// shifted bounds.
func oracleInputs(seeds int) (names []string, scs []*scop.SCoP) {
	for _, spec := range kernels.Table9 {
		for _, n := range []int{16, 32} {
			names = append(names, fmt.Sprintf("%s/n=%d", spec.Name, n))
			scs = append(scs, kernels.BuildTable9(spec, n, 1).SCoP)
		}
	}
	names = append(names, "3mm")
	scs = append(scs, kernels.MMChain(3, 6, kernels.MM).SCoP)
	for seed := 0; seed < seeds; seed++ {
		cfg := fuzzscop.Config{Overwrites: seed%2 == 0, Sink: seed%5 == 0, Shifted: seed%3 == 1}
		names = append(names, fmt.Sprintf("fuzz-%d", seed))
		scs = append(scs, fuzzscop.Random(rand.New(rand.NewSource(int64(seed))), cfg))
	}
	return names, scs
}

// TestBuildIRMatchesBuilder is the oracle for lowering straight from
// the in-dependency columns: over the corpus at MinBlockIters 1, 4 and
// 64 the program equals, edge for edge, what runtime.Builder resolves
// from the §5.4 addresses — so runtime.edges cannot move.
func TestBuildIRMatchesBuilder(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	names, scs := oracleInputs(seeds)
	for k, sc := range scs {
		for _, minIters := range []int{1, 4, 64} {
			info, err := core.Detect(sc, core.Options{MinBlockIters: minIters, AllowOverwrites: true, Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", names[k], err)
			}
			prog, err := CompileForEmission(info)
			if err != nil {
				t.Fatalf("%s: %v", names[k], err)
			}
			checkLoweringAgainstReplay(t, fmt.Sprintf("%s min=%d", names[k], minIters), prog)
		}
	}
}

// TestChainExecutorStress is the termination and bit-identity stress
// of the chain executor on compiled programs: every Table 9 program and
// shifted random SCoPs, 200 runs at each of 1, 2, 3, 4 and 7 workers,
// each checked against the sequential hash and run under a watchdog, so
// a lost wake-up fails the test instead of hanging it. Run it with
// -race.
func TestChainExecutorStress(t *testing.T) {
	runs := 200
	if testing.Short() {
		runs = 20
	}
	var progs []*kernels.Program
	for _, spec := range kernels.Table9 {
		progs = append(progs, interp.Programify(kernels.BuildTable9(spec, 8, 1).SCoP))
	}
	for seed := int64(1); seed <= 6; seed++ {
		sc := fuzzscop.Random(rand.New(rand.NewSource(seed)), fuzzscop.Config{MaxNests: 5, Shifted: true})
		progs = append(progs, interp.Programify(sc))
	}
	for _, p := range progs {
		want := runSequential(p)
		info, err := core.Detect(p.SCoP, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		prog, err := Compile(info)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		ir := prog.Lower()
		for _, workers := range []int{1, 2, 3, 4, 7} {
			for run := 0; run < runs; run++ {
				p.Reset()
				done := make(chan error, 1)
				go func() {
					_, err := ir.ExecuteChecked(workers, runtime.ExecOptions{})
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("%s workers=%d run %d: %v", p.Name, workers, run, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s workers=%d run %d: no termination after 10s", p.Name, workers, run)
				}
				if got := p.Hash(); got != want {
					t.Fatalf("%s workers=%d run %d: hash %x, want %x", p.Name, workers, run, got, want)
				}
			}
		}
	}
}
