// Command benchmark is the repository's one benchmark: four workloads,
// each compiling loop programs into task pipelines, running them (in
// process and as emitted binaries) and calling the /v1/detect service,
// measured only through polypipe.Session, the serve.Server listener and
// the emitted binaries, with every output checked against a reference.
// The per-layer numbers come from the separate benchmark/layers binary.
// benchmark/README.md explains the workloads and how to read results.
//
//	benchmark/run.sh --workload t9_light --seed 1 --seconds 25 --trace 0
//	benchmark/run.sh -runs 10 -out a.json        # every workload, ten seeds each
//	benchmark/run.sh -runs 10 -workload serve_cold -out cold.json
//	benchmark/run.sh -compare a.json b.json
//	benchmark/run.sh -update-golden
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/benchmark/internal/gen"
)

func main() {
	workload := flag.String("workload", "", "run this one workload and print its result as the last line")
	seed := flag.Int64("seed", 1, "seed of the corpus draws and the request order")
	seconds := flag.Float64("seconds", 25, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = the traced per-layer pass (the benchmark/layers binary)")
	runs := flag.Int("runs", 0, "run every workload (or the one -workload names) this many times, run r at seed+r, in fresh processes; default 5 when no -workload is given")
	out := flag.String("out", "", "with -runs: also write every run to this result file")
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark's declaration (metric names, directions, bounds)")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	update := flag.Bool("update-golden", false, "regenerate benchmark/golden.json from the sequential executor")
	flag.Parse()

	var sc gen.Scenario
	var err error
	if *workload != "" {
		sc, err = gen.ScenarioByName(*workload)
	}
	switch {
	case err != nil:
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare a.json b.json")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)); regressed {
			os.Exit(1)
		}
	case *update:
		err = updateGolden("benchmark/golden.json")
	case *trace == 1:
		err = forward(layersBinary(), os.Args[1:])
	case *workload != "" && *runs == 0:
		var res *gen.Result
		if res, err = runWorkload(sc, *seed, gen.Scale{Seconds: *seconds}); err != nil {
			break
		}
		if err = res.Print(os.Stdout); err == nil && !res.Correct {
			err = fmt.Errorf("%s: %d of %d operations failed", sc.Name, res.Failed, res.Attempted)
		}
	default:
		if *runs == 0 {
			*runs = 5
		}
		err = runAll(*workload, *runs, *seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}
