// Command layers is the benchmark's traced pass: it runs one workload's
// inputs through each layer's public functions, one call at a time,
// with a span around every call, and reports the per-layer metrics
// BENCHMARK.json declares. The spans live in this package — nothing
// inside the program is instrumented — are kept in memory, and are
// written once at exit. End-to-end metrics come from the driver in the
// parent directory, which never runs with tracing.
//
//	benchmark/run.sh --workload serve_warm --seed 1 --seconds 25 --trace 1
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/benchmark/internal/gen"
)

func run(sc gen.Scenario, seed int64, sz gen.Scale, traceOut string) (*gen.Result, error) {
	res := gen.NewResult()
	t := newTracer()
	if err := execPass(t, sc, sz, res); err != nil {
		return nil, err
	}
	if err := aotPass(t, sc, sz, res); err != nil {
		return nil, err
	}
	if err := servePass(t, sc, seed, sz, res); err != nil {
		return nil, err
	}

	// Tracing overhead on the workload's main metric: the traced layer
	// calls against the same work done untraced through the public
	// surface in the same process.
	traced := t.sum("core.detect_ms") + t.sum("codegen.compile_ms") + t.sum("runtime.lower_ms") + t.sum("runtime.execute_ms")
	untraced := t.sum("e2e.compile_and_run_ms")
	if sc.FixedDocs == nil { // a serve workload: loopback latency
		traced, untraced = gen.Median(t.all("serve.loopback_ms")), gen.Median(t.all("serve.loopback_untraced_ms"))
	}
	res.Set("trace.overhead_pct", 100*(traced-untraced)/untraced, "%")
	res.Set("trace.spans", float64(len(t.spans)), "count")
	res.Set("fail_share", float64(res.Failed)/float64(res.Attempted), "ratio")
	if err := t.write(traceOut); err != nil {
		return nil, err
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "the workload whose inputs to trace")
	seed := flag.Int64("seed", 1, "seed of the corpus draws")
	seconds := flag.Float64("seconds", 25, "run length the pass is scaled to")
	flag.Int("trace", 1, "accepted for the driver's sake; this binary always traces")
	traceOut := flag.String("trace-out", "", "where to write the spans (default: under the temporary directory)")
	flag.Parse()

	sc, err := gen.ScenarioByName(*workload)
	if err == nil {
		if *traceOut == "" {
			*traceOut = filepath.Join(os.TempDir(), "polypipe-benchmark", "trace-"+sc.Name+".json")
		}
		var res *gen.Result
		if res, err = run(sc, *seed, gen.Scale{Seconds: *seconds}, *traceOut); err == nil {
			if err = res.Print(os.Stdout); err == nil && !res.Correct {
				err = fmt.Errorf("%s: %d of %d operations failed", sc.Name, res.Failed, res.Attempted)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(2)
	}
}
