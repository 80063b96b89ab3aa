package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/benchmark/internal/gen"
)

// Every workload, run at the smallest scale, must report exactly the
// end-to-end metrics BENCHMARK.json declares, with the declared units,
// and fail no operation. go build of the emitted sources is skipped
// under -short.
func TestWorkloadsReportTheDeclaredMetrics(t *testing.T) {
	var spec gen.Declaration
	if err := gen.ReadJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(gen.Scenarios()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(gen.Scenarios()))
	}
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			sc, err := gen.ScenarioByName(wl.Name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runWorkload(sc, goldenSeed, gen.Scale{Seconds: 1, Smoke: true, SkipBuild: testing.Short()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, problem := range res.Undeclared(spec.EndToEnd) {
				t.Error(problem)
			}
			for _, m := range spec.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 && !(testing.Short() && m.Name == "aot_run_ms") {
					t.Errorf("%s = %v; an end-to-end metric is never 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
		})
	}
}

func TestResultLineIsLastAndParses(t *testing.T) {
	res := gen.NewResult()
	res.Set("lat_p50_ms", 1.25, "ms")
	res.Op(true, "")
	var out bytes.Buffer
	if err := res.Print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var back gen.Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &back); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !back.Correct || back.Attempted != 1 || back.Metrics["lat_p50_ms"].Value != 1.25 {
		t.Errorf("round trip gave %+v", back)
	}
}

// writeRuns writes a result file whose one workload reports one metric
// with the given values, one per run.
func writeRuns(t *testing.T, host gen.Host, values ...float64) string {
	t.Helper()
	f := resultFile{Host: host, Seed: 1, Seconds: 20, Runs: map[string][]gen.Result{}}
	for _, v := range values {
		r := gen.NewResult()
		r.Op(true, "")
		r.Set("lat_ms", v, "ms")
		f.Runs["w"] = append(f.Runs["w"], *r)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "runs.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"}],
		"end_to_end":[{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	host := gen.ThisHost()
	base := writeRuns(t, host, 10, 10.1, 9.9, 10.2, 9.8)
	for _, c := range []struct {
		name      string
		b         string
		verdict   string
		regressed bool
	}{
		{"same", writeRuns(t, host, 10.1, 10, 9.9, 10.3, 9.7), " ok", false},
		{"slower beyond the bound", writeRuns(t, host, 12, 12.1, 11.9, 12.2, 11.8), "REGRESSION", true},
		{"too noisy to tell", writeRuns(t, host, 8, 14, 9, 13, 10.5), "unresolved", false},
		{"noisy but every run faster", writeRuns(t, host, 5, 8, 6, 7, 9), " ok", false},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, spec, base, c.b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if regressed != c.regressed || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: regressed=%v, want %v and verdict %q in:\n%s", c.name, regressed, c.regressed, c.verdict, out.String())
		}
	}

	other := host
	other.GOMAXPROCS++
	if _, err := compareFiles(io.Discard, spec, base, writeRuns(t, other, 10, 10, 10)); err == nil {
		t.Error("files from different host shapes were compared")
	}
}
