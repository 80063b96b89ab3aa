package gogen

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
)

const listing1Src = `
for (i = 0; i < 11; i++)
  for (j = 0; j < 11; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for (i = 0; i < 5; i++)
  for (j = 0; j < 5; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
`

// generate parses src, detects, and emits with the given pass
// selection, returning the emitted source and the in-process
// interpreter's sequential reference hash.
func generate(t *testing.T, src, passes string) (string, uint64) {
	t.Helper()
	sc, err := lang.Parse("gen", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := EmitWith(&b, info, EmitOptions{Workers: 4, Passes: passes}); err != nil {
		t.Fatal(err)
	}
	// Reference hash from the in-process interpreter (bodies attached
	// only now, after emission: Emit must not need or cause them).
	p := interp.Programify(sc)
	p.Reset()
	for _, s := range sc.Stmts {
		for _, iv := range s.Domain.Elements() {
			s.Body(iv)
		}
	}
	return b.String(), p.Hash()
}

// TestEmitDoesNotMutateInput is the regression test for the old
// gogen.Emit side effect of attaching interpreter bodies to the
// caller's SCoP: emission of an analysis-only SCoP must leave it
// analysis-only.
func TestEmitDoesNotMutateInput(t *testing.T) {
	sc, err := lang.Parse("gen", listing1Src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sc.HasBodies() {
		t.Fatal("precondition: parsed SCoP should be analysis-only")
	}
	var b strings.Builder
	if err := EmitWith(&b, info, EmitOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if sc.HasBodies() {
		t.Error("Emit attached statement bodies to the input SCoP")
	}
	for _, s := range sc.Stmts {
		if s.Body != nil {
			t.Errorf("Emit attached a body to statement %q", s.Name)
		}
	}
}

func TestGeneratedSourceParses(t *testing.T) {
	src, _ := generate(t, listing1Src, "")
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
		t.Fatalf("generated source does not parse: %v\n%s", err, numbered(src))
	}
	for _, want := range []string{
		"func task_0()",
		"var tasks = []func(){",
		"var succOff = []int32{", // embedded task DAG
		"func runPipelined(workers int)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("optimized source missing %q", want)
		}
	}
	for _, reject := range []string{
		"func stmt_S(", // specialize pass inlines bodies
		"lexLE(",       // specialize pass removes guarded scans
	} {
		if strings.Contains(src, reject) {
			t.Errorf("optimized source still contains %q", reject)
		}
	}
}

func TestGeneratedSourceUnoptimized(t *testing.T) {
	src, _ := generate(t, listing1Src, "none")
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
		t.Fatalf("unoptimized source does not parse: %v\n%s", err, numbered(src))
	}
	for _, want := range []string{
		"func stmt_S(i0 int, i1 int)",
		"func stmt_R(i0 int, i1 int)",
		"func runBlock_S(",
		"var succOff = []int32{", // the task DAG is embedded without passes too
		"func runPipelined(workers int)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("unoptimized source missing %q", want)
		}
	}
}

func numbered(src string) string {
	lines := strings.Split(src, "\n")
	for i := range lines {
		lines[i] = fmt.Sprintf("%4d  %s", i+1, lines[i])
	}
	return strings.Join(lines, "\n")
}

// runGenerated compiles and executes emitted source with `go run`,
// returning the parsed hash and task count.
func runGenerated(t *testing.T, src string, args ...string) (uint64, int) {
	t.Helper()
	dir := t.TempDir()
	file := filepath.Join(dir, "main.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", append([]string{"run", file}, args...)...)
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run failed: %v\n%s\n--- source ---\n%s", err, out, numbered(src))
	}
	outStr := strings.TrimSpace(string(out))
	if !strings.HasPrefix(outStr, "ok hash=") {
		t.Fatalf("generated program output: %q", outStr)
	}
	var gotHash uint64
	var tasks int
	if _, err := fmt.Sscanf(outStr, "ok hash=%x tasks=%d", &gotHash, &tasks); err != nil {
		t.Fatalf("cannot parse output %q: %v", outStr, err)
	}
	return gotHash, tasks
}

// TestGeneratedProgramRuns compiles and executes the generated
// standalone program with `go run`, optimized and unoptimized, and
// checks (a) it self-verifies (sequential == pipelined inside the
// generated binary) and (b) its result hash matches the in-process
// interpreter bit for bit.
func TestGeneratedProgramRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("go run is slow")
	}
	for _, passes := range []string{"all", "none"} {
		t.Run(passes, func(t *testing.T) {
			src, wantHash := generate(t, listing1Src, passes)
			gotHash, tasks := runGenerated(t, src)
			if gotHash != wantHash {
				t.Fatalf("generated program hash %x != interpreter hash %x", gotHash, wantHash)
			}
			if tasks == 0 {
				t.Fatal("generated program created no tasks")
			}
		})
	}
}

func TestGeneratedDepthOne(t *testing.T) {
	src, _ := generate(t, `
for (i = 0; i < 9; i++)
  S: A[i] = f(A[i]);
for (i = 0; i < 9; i++)
  T: B[i] = g(A[i], B[i]);
`, "none")
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
		t.Fatalf("depth-1 source does not parse: %v", err)
	}
	if !strings.Contains(src, "func runBlock_T(f0, t0 int)") {
		t.Error("depth-1 block runner signature wrong")
	}
}
