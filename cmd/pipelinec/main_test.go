package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/polypipe"
)

func TestReadInputExamples(t *testing.T) {
	src, name, err := readInput("listing1", nil, nil)
	if err != nil || name != "listing1" || !strings.Contains(src, "A[i][2*j]") {
		t.Fatalf("listing1: %q %v", name, err)
	}
	src, name, err = readInput("listing3", nil, nil)
	if err != nil || name != "listing3" || !strings.Contains(src, "U:") {
		t.Fatalf("listing3: %q %v", name, err)
	}
	if _, _, err := readInput("nope", nil, nil); err == nil {
		t.Fatal("unknown example accepted")
	}
	if _, _, err := readInput("", []string{"a", "b"}, nil); err == nil {
		t.Fatal("two files accepted")
	}
}

func TestReadInputFile(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "p.loop")
	if err := os.WriteFile(file, []byte("for (i = 0; i < 3; i++) S: A[i] = f(B[i]);"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, name, err := readInput("", []string{file}, nil)
	if err != nil || name != file || !strings.Contains(src, "S:") {
		t.Fatalf("file input: %q %v", name, err)
	}
	if _, _, err := readInput("", []string{filepath.Join(dir, "missing")}, nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadInputStdin(t *testing.T) {
	src, name, err := readInput("", nil, strings.NewReader("for (i = 0; i < 3; i++) S: A[i] = f(A[i]);"))
	if err != nil || name != "stdin" || !strings.Contains(src, "S:") {
		t.Fatalf("stdin input: %q %v", name, err)
	}
}

func TestBuiltinExamplesParseAndDetect(t *testing.T) {
	for _, example := range []string{"listing1", "listing3"} {
		src, name, err := readInput(example, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := polypipe.Parse(name, src)
		if err != nil {
			t.Fatalf("%s: %v", example, err)
		}
		if _, err := polypipe.NewSession().Detect(sc); err != nil {
			t.Fatalf("%s: %v", example, err)
		}
	}
}

// run invokes realMain in-process with the given stdin text and
// returns (exit code, stdout, stderr).
func run(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := realMain(args, strings.NewReader(stdin), &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestExitCodes covers the failure paths: each failure class maps to
// its documented exit code, with a diagnostic on stderr.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-file.loop")
	badDSL := filepath.Join(dir, "bad.loop")
	if err := os.WriteFile(badDSL, []byte("for (i = 0 i < 3) garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A cross-statement write-after-write hazard (both loops write A)
	// parses fine but is outside the pipelinable fragment.
	notPipe := filepath.Join(dir, "notpipe.loop")
	if err := os.WriteFile(notPipe, []byte(`
for (i = 0; i < 5; i++)
  S: A[i] = f(A[i]);
for (i = 0; i < 5; i++)
  T: A[i] = g(A[i]);
`), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"success", []string{"-example", "listing1", "-dump", "report"}, exitOK},
		{"unknown flag", []string{"-no-such-flag"}, exitParse},
		{"unknown example", []string{"-example", "nope"}, exitParse},
		{"two files", []string{"a.loop", "b.loop"}, exitParse},
		{"bad DSL", []string{badDSL}, exitParse},
		{"bad passes", []string{"-passes", "bogus", "-example", "listing1"}, exitParse},
		{"empty pass subset", []string{"-dump-ir", "-passes", ",", "-example", "listing1"}, exitParse},
		{"removed pass", []string{"-dump-ir", "-passes", "fuse", "-example", "listing1"}, exitParse},
		{"negative workers", []string{"-workers", "-1", "-dump", "report", "-example", "listing1"}, exitParse},
		{"missing input file", []string{missing}, exitIO},
		{"unwritable gogen output", []string{"-gogen", filepath.Join(dir, "no-dir", "out.go"), "-example", "listing1"}, exitIO},
		{"not pipelinable", []string{notPipe}, exitNotPipelinable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errOut := run(t, "", tc.args...)
			if code != tc.want {
				t.Fatalf("args %v: exit %d, want %d (stderr: %s)", tc.args, code, tc.want, errOut)
			}
			if code != exitOK && errOut == "" {
				t.Error("failure produced no stderr diagnostic")
			}
		})
	}
}

// TestDumpIRFlag: -dump-ir prints the IR, and -passes selects the pass
// pipeline visible in its header.
func TestDumpIRFlag(t *testing.T) {
	code, out, errOut := run(t, "", "-dump-ir", "-dump", "report", "-example", "listing1")
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"== block-program IR ==", "passes: specialize, narrow", "task ", "preds=["} {
		if !strings.Contains(out, want) {
			t.Errorf("optimized -dump-ir output missing %q", want)
		}
	}

	code, out, errOut = run(t, "", "-dump-ir", "-passes", "none", "-dump", "report", "-example", "listing1")
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "passes: (none)") {
		t.Errorf("-passes none did not disable the pass pipeline:\n%s", out)
	}

	code, out, _ = run(t, "", "-dump-ir", "-passes", "specialize", "-dump", "report", "-example", "listing1")
	if code != exitOK || !strings.Contains(out, "passes: specialize\n") {
		t.Errorf("-passes specialize not reflected in IR dump (exit %d)", code)
	}
}

// TestGogenFlag: -gogen writes a compilable-looking standalone
// program through the session backend, honoring -passes.
func TestGogenFlag(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "gen.go")
	code, stdout, errOut := run(t, "", "-gogen", out, "-dump", "report", "-example", "listing1")
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(stdout, "wrote standalone pipelined program") {
		t.Errorf("missing confirmation line: %s", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	for _, want := range []string{"package main", "var succOff = []int32{", "func runPipelined(workers int)"} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted program missing %q", want)
		}
	}

	code, _, _ = run(t, "", "-gogen", out, "-passes", "none", "-dump", "report", "-example", "listing1")
	if code != exitOK {
		t.Fatal("unoptimized -gogen failed")
	}
	data, err = os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "var succOff = []int32{") || strings.Contains(string(data), "resolveDeps") {
		t.Error("-passes none emitted program does not embed the task DAG")
	}
}

// TestWorkersZero: -workers 0 means GOMAXPROCS, and every consumer of
// the flag — the simulated run, the IR dump and the emitted program —
// sees that one resolved count.
func TestWorkersZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	code, out, errOut := run(t, "", "-run", "-workers", "0", "-dump", "report", "-example", "listing1")
	if code != exitOK {
		t.Fatalf("-run -workers 0: exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "simulated speed-up on 3 workers") {
		t.Errorf("-run -workers 0 did not simulate GOMAXPROCS workers:\n%s", out)
	}

	code, out, errOut = run(t, "", "-dump-ir", "-workers", "0", "-dump", "report", "-example", "listing1")
	if code != exitOK {
		t.Fatalf("-dump-ir -workers 0: exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, " workers=3 ") {
		t.Errorf("-dump-ir -workers 0 did not bake in GOMAXPROCS workers:\n%s", out)
	}

	gen := filepath.Join(t.TempDir(), "gen.go")
	if code, _, errOut = run(t, "", "-gogen", gen, "-workers", "0", "-dump", "report", "-example", "listing1"); code != exitOK {
		t.Fatalf("-gogen -workers 0: exit %d: %s", code, errOut)
	}
	data, err := os.ReadFile(gen)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "workers := 3\n") {
		t.Error("-gogen -workers 0 did not bake in GOMAXPROCS workers")
	}
}

// TestStdinPipeline: the default path (program on stdin, all dumps)
// succeeds end to end.
func TestStdinPipeline(t *testing.T) {
	code, out, errOut := run(t, `
for (i = 0; i < 6; i++)
  S: A[i] = f(A[i]);
for (i = 0; i < 6; i++)
  T: B[i] = g(A[i], B[i]);
`)
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"pipeline detection report (stdin)", "schedule tree", "annotated AST"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdin run missing %q", want)
		}
	}
}
