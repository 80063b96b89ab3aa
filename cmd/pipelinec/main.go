// Command pipelinec is the mini-compiler front door: it parses a
// loop-nest program in the DSL (see internal/lang), runs cross-loop
// pipeline detection, and prints the requested artifacts — the
// pipeline-map report, the transformed schedule tree (Algorithm 2),
// the annotated AST (the Figure 6 artifact), the optimized
// block-program IR, or a standalone pipelined Go program (the AOT
// backend).
//
// Usage:
//
//	pipelinec [-dump report|tree|ast|all] [-min-block-iters N] file.loop
//	pipelinec -example listing1            # run on a built-in example
//	pipelinec -gogen out.go file.loop      # emit a standalone Go program
//	pipelinec -dump-ir -passes specialize file.loop
//
// With no file and no -example, the program is read from stdin.
//
// Exit codes distinguish failure classes so scripts can branch
// without string-matching stderr:
//
//	0  success
//	1  other errors
//	2  parse/usage errors (bad flags, bad DSL, bad -passes, negative -workers)
//	3  the program is outside the pipelinable fragment
//	4  I/O errors (unreadable input, unwritable output)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"

	"repro/internal/gogen"
	"repro/internal/ir"
	"repro/internal/par"
	"repro/polypipe"
)

// Exit codes of the pipelinec process. The mapping from typed
// polypipe errors happens in realMain via errors.Is.
const (
	exitOK             = 0
	exitErr            = 1
	exitParse          = 2
	exitNotPipelinable = 3
	exitIO             = 4
)

const listing1Example = `// Paper Listing 1, N = 20
for (i = 0; i < 19; i++)
  for (j = 0; j < 19; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for (i = 0; i < 9; i++)
  for (j = 0; j < 9; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
`

const listing3Example = `// Paper Listing 3, N = 12
for (i = 0; i < 11; i++)
  for (j = 0; j < 11; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for (i = 0; i < 5; i++)
  for (j = 0; j < 5; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
for (i = 0; i < 5; i++)
  for (j = 0; j < 5; j++)
    U: C[i][j] = h(A[2*i][2*j], B[i][j], C[i][j+1], C[i+1][j+1], C[i][j]);
`

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// realMain is the whole program behind an exit code, parameterized
// over its streams so the failure paths are testable in-process.
func realMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("pipelinec", flag.ContinueOnError)
	flags.SetOutput(stderr)
	dump := flags.String("dump", "all", "artifacts to print: report, blocks, tree, ast, or all")
	minIters := flags.Int("min-block-iters", 0, "group pipeline blocks into tasks of at least this many iterations (-run, -dump-ir, -gogen; -dump shows detection's blocks)")
	example := flags.String("example", "", "use a built-in example program: listing1 or listing3")
	run := flags.Bool("run", false, "also execute the program (synthetic bodies): verify pipelined vs sequential and report the simulated speed-up")
	workersFlag := flags.Int("workers", 4, "worker count for -run, -dump-ir and generated code (0 = GOMAXPROCS)")
	gogenOut := flags.String("gogen", "", "write a standalone pipelined Go program to this file")
	scopOut := flags.String("export-scop", "", "write the parsed SCoP as JSON to this file")
	passes := flags.String("passes", "", "IR pass selection for -gogen/-dump-ir: \"\" or \"all\", \"none\", or a comma-separated subset of pass names")
	dumpIR := flags.Bool("dump-ir", false, "print the (optimized) block-program IR")
	if err := flags.Parse(args); err != nil {
		return exitParse
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "pipelinec:", err)
		return code
	}

	if *workersFlag < 0 {
		return fail(exitParse, fmt.Errorf("-workers %d, want >= 0 (0 = GOMAXPROCS)", *workersFlag))
	}
	workers := par.Workers(*workersFlag)
	if _, err := ir.ParsePasses(*passes); err != nil {
		return fail(exitParse, err)
	}

	src, name, err := readInput(*example, flags.Args(), stdin)
	if err != nil {
		return fail(inputErrCode(err), err)
	}
	sc, err := polypipe.Parse(name, src)
	if err != nil {
		return fail(exitParse, err)
	}
	opts := polypipe.Options{MinBlockIters: *minIters}
	sess := polypipe.NewSession(
		polypipe.WithWorkers(workers),
		polypipe.WithOptions(opts),
		polypipe.WithCache(0),
	)
	defer sess.Close()
	info, err := sess.Detect(sc)
	if err != nil {
		if errors.Is(err, polypipe.ErrNotPipelinable) {
			return fail(exitNotPipelinable, err)
		}
		return fail(exitErr, err)
	}

	show := func(kind string) bool { return *dump == kind || *dump == "all" }
	if *scopOut != "" {
		data, err := polypipe.MarshalSCoP(sc)
		if err != nil {
			return fail(exitErr, err)
		}
		if err := os.WriteFile(*scopOut, data, 0o644); err != nil {
			return fail(exitIO, err)
		}
		fmt.Fprintf(stdout, "wrote SCoP description to %s\n\n", *scopOut)
	}
	if *dumpIR {
		p, err := gogen.Compile(info, gogen.EmitOptions{Workers: workers, Passes: *passes, MinBlockIters: *minIters})
		if err != nil {
			return fail(exitErr, err)
		}
		fmt.Fprintf(stdout, "== block-program IR ==\n%s\n", p)
	}
	if *gogenOut != "" {
		f, err := os.Create(*gogenOut)
		if err != nil {
			return fail(exitIO, err)
		}
		emitErr := sess.EmitGo(f, sc, polypipe.EmitOptions{Workers: workers, Passes: *passes})
		if closeErr := f.Close(); emitErr == nil {
			emitErr = closeErr
		}
		if emitErr != nil {
			return fail(exitIO, emitErr)
		}
		fmt.Fprintf(stdout, "wrote standalone pipelined program to %s (run with `go run %s`)\n\n", *gogenOut, *gogenOut)
	}
	if *run {
		prog := polypipe.Interpret(sc)
		if err := sess.Verify(prog); err != nil {
			return fail(exitErr, err)
		}
		res, err := sess.Run(polypipe.ModePipelined, prog)
		if err != nil {
			return fail(exitErr, err)
		}
		fmt.Fprintf(stdout, "verification: pipelined == parloop == sequential ✓ (%d blocks, %d chain tasks)\n",
			info.TotalBlocks(), res.Tasks)
		// One measurement for both points, so the critical-path bound
		// always dominates the bounded speed-up.
		s, err := sess.Simulate(prog, polypipe.SimConfig{Procs: []int{workers, 1 << 16}})
		if err != nil {
			return fail(exitErr, err)
		}
		fmt.Fprintf(stdout, "simulated speed-up on %d workers: %.2fx (critical-path bound: %.2fx)\n\n",
			workers, s[0], s[1])
	}
	if show("report") {
		fmt.Fprintf(stdout, "== pipeline detection report (%s) ==\n%s\n", name, polypipe.PipelineReport(info))
	}
	if *dump == "blocks" {
		fmt.Fprintf(stdout, "== pipeline blocks ==\n%s\n", polypipe.BlockReport(info))
	}
	if show("tree") {
		fmt.Fprintf(stdout, "== schedule tree ==\n%s\n", polypipe.ScheduleTree(info))
	}
	if show("ast") {
		out, err := polypipe.TransformedAST(name+"_pipelined", info)
		if err != nil {
			return fail(exitErr, err)
		}
		fmt.Fprintf(stdout, "== annotated AST ==\n%s", out)
	}
	return exitOK
}

// inputErrCode classifies a readInput failure: filesystem errors are
// I/O, everything else (unknown example, too many arguments) is
// usage.
func inputErrCode(err error) int {
	var pathErr *fs.PathError
	if errors.As(err, &pathErr) {
		return exitIO
	}
	return exitParse
}

func readInput(example string, args []string, stdin io.Reader) (src, name string, err error) {
	switch example {
	case "listing1":
		return listing1Example, "listing1", nil
	case "listing3":
		return listing3Example, "listing3", nil
	case "":
	default:
		return "", "", fmt.Errorf("unknown example %q (want listing1 or listing3)", example)
	}
	if len(args) > 1 {
		return "", "", fmt.Errorf("expected at most one input file, got %d", len(args))
	}
	if len(args) == 1 {
		data, err := os.ReadFile(args[0])
		if err != nil {
			return "", "", err
		}
		return string(data), args[0], nil
	}
	data, err := io.ReadAll(stdin)
	if err != nil {
		return "", "", err
	}
	return string(data), "stdin", nil
}
