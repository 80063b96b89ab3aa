package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"repro/benchmark/internal/gen"
)

// resultFile is what -out writes and -compare reads: every run of
// every workload, with the host shape and seed they were taken at.
type resultFile struct {
	Host    gen.Host `json:"host"`
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim  *string                 `json:"claim"`
	Runs   map[string][]gen.Result `json:"runs"`
	Layers map[string]gen.Result   `json:"layers,omitempty"`
}

// layersBinary is where run.sh puts the traced pass, beside this
// binary.
func layersBinary() string {
	self, err := os.Executable()
	if err != nil {
		return "layers"
	}
	return filepath.Join(filepath.Dir(self), "layers")
}

// forward runs bin with args on this process's standard streams.
func forward(bin string, args []string) error {
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd.Run()
}

// child runs one workload once in a fresh process, so set-up time and
// peak memory are the workload's own, and parses the result line.
func child(bin, workload string, seed int64, seconds float64, trace int) (gen.Result, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return gen.Result{}, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res gen.Result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return gen.Result{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}

// runAll runs every workload (or only the one named) `runs` times, run
// r at seed+r, then the traced pass once per workload when its binary
// is there, prints the medians and writes the result file.
func runAll(only string, runs int, seed int64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Host: gen.ThisHost(), Seed: seed, Seconds: seconds, Runs: map[string][]gen.Result{}, Layers: map[string]gen.Result{}}
	for _, sc := range gen.Scenarios() {
		if only != "" && sc.Name != only {
			continue
		}
		for r := 0; r < runs; r++ {
			res, err := child(self, sc.Name, seed+int64(r), seconds, 0)
			if err != nil {
				return err
			}
			file.Runs[sc.Name] = append(file.Runs[sc.Name], res)
		}
		fmt.Printf("== %s: median of %d runs (spread = quartile distance / median)\n", sc.Name, runs)
		for _, name := range metricNames(file.Runs[sc.Name]) {
			vals := metricValues(file.Runs[sc.Name], name)
			fmt.Printf("%-28s %14.6g %-6s spread %5.1f%%\n", name, gen.Median(vals), file.Runs[sc.Name][0].Metrics[name].Unit, 100*gen.Spread(vals))
		}
		if _, err := os.Stat(layersBinary()); err != nil {
			fmt.Println("(no layers binary beside this one: per-layer pass skipped)")
			continue
		}
		res, err := child(layersBinary(), sc.Name, seed, seconds, 1)
		if err != nil {
			return err
		}
		file.Layers[sc.Name] = res
		fmt.Printf("-- %s: per-layer pass\n", sc.Name)
		if err := res.Print(os.Stdout); err != nil {
			return err
		}
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}
