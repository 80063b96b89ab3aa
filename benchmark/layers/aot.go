package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"

	"repro/benchmark/internal/gen"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gogen"
	"repro/internal/ir"
)

// aotPass takes each AOT member through the emission back end: the
// whole of gogen.EmitWith with every pass and with none, then its
// stages one by one (task compilation for emission, IR lowering, the
// pass pipeline, printing), then go build and one run of the binary.
func aotPass(t *tracer, sc gen.Scenario, sz gen.Scale, res *gen.Result) error {
	workers := runtime.GOMAXPROCS(0)
	passes, err := ir.ParsePasses("")
	if err != nil {
		return err
	}
	op := 1 << 20 // apart from the exec pass's operation ids
	for _, m := range sc.AOT {
		name := m.Name
		p := m.Program(false)
		want := exec.Sequential(p).Hash
		info, err := core.Detect(p.SCoP, core.Options{})
		if err != nil {
			return fmt.Errorf("%s: detect: %w", name, err)
		}
		var src bytes.Buffer
		emitted := 0 // tasks in the optimized IR, which the binary must report
		for round := 0; round < sz.Reps(3, 1); round++ {
			op++
			root := t.begin("aot.member", -1, op)
			src.Reset()
			t.time("gogen.emit_ms", name, root, op, func() {
				err = gogen.EmitWith(&src, info, gogen.EmitOptions{Workers: workers})
			})
			if err != nil {
				return fmt.Errorf("%s: emit: %w", name, err)
			}
			t.time("gogen.emit_noopt_ms", name, root, op, func() {
				err = gogen.EmitWith(io.Discard, info, gogen.EmitOptions{Workers: workers, Passes: "none"})
			})
			if err != nil {
				return fmt.Errorf("%s: emit without passes: %w", name, err)
			}

			var tp *codegen.TaskProgram
			t.time("codegen.compile_for_emission_ms", name, root, op, func() { tp, err = codegen.CompileForEmission(info) })
			if err != nil {
				return fmt.Errorf("%s: compile for emission: %w", name, err)
			}
			var prog *ir.Program
			opt := ir.Options{Workers: workers}
			t.time("ir.lower_ms", name, root, op, func() { prog, err = ir.Lower(info, tp, opt) })
			if err != nil {
				return fmt.Errorf("%s: lower: %w", name, err)
			}
			t.add("ir.tasks_before", name, float64(len(prog.Tasks)))
			t.time("ir.passes_ms", name, root, op, func() { ir.RunPasses(prog, passes, opt) })
			emitted = len(prog.Tasks)
			t.add("ir.tasks_after", name, float64(emitted))
			t.time("gogen.print_ms", name, root, op, func() { err = gogen.Print(io.Discard, prog) })
			if err != nil {
				return fmt.Errorf("%s: print: %w", name, err)
			}
			t.end(root, name)
		}

		if sz.SkipBuild {
			continue
		}
		bin, took, err := gen.BuildEmitted(m.Key(false), src.Bytes())
		if err != nil {
			return err
		}
		t.add("aot.gobuild_s", name, took.Seconds())
		hash, tasks, seq, _, err := gen.RunEmitted(bin)
		if err != nil {
			return err
		}
		res.Op(hash == want && tasks == emitted, "%s: emitted binary hash %x tasks %d, want %x and %d", name, hash, tasks, want, emitted)
		t.add("aot.bin_seq_us", name, float64(seq.Microseconds()))
	}
	for _, name := range []string{"gogen.emit_ms", "gogen.emit_noopt_ms", "ir.lower_ms", "ir.passes_ms", "gogen.print_ms"} {
		res.Set(name, t.sum(name), "ms")
	}
	res.Set("ir.tasks_before", t.sum("ir.tasks_before"), "count")
	res.Set("ir.tasks_after", t.sum("ir.tasks_after"), "count")
	res.Set("aot.gobuild_s", t.sum("aot.gobuild_s"), "s")
	res.Set("aot.bin_seq_us", t.sum("aot.bin_seq_us"), "us")
	return nil
}
