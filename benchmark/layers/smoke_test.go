package main

import (
	"path/filepath"
	"testing"

	"repro/benchmark/internal/gen"
)

// The traced pass of every workload must report exactly the per-layer
// metrics BENCHMARK.json declares, with the declared units, fail no
// operation, and write a trace whose spans are well formed.
func TestPassReportsTheDeclaredLayerMetrics(t *testing.T) {
	var spec gen.Declaration
	if err := gen.ReadJSON(filepath.Join("..", "..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	for _, sc := range gen.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "trace.json")
			res, err := run(sc, 1, gen.Scale{Seconds: 1, Smoke: true, SkipBuild: testing.Short()}, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, problem := range res.Undeclared(spec.PerLayer) {
				t.Error(problem)
			}

			var trace struct {
				Spans []span `json:"spans"`
			}
			if err := gen.ReadJSON(out, &trace); err != nil {
				t.Fatal(err)
			}
			if len(trace.Spans) == 0 {
				t.Fatal("no spans written")
			}
			for _, s := range trace.Spans {
				if s.End < s.Start || s.Parent >= s.ID || (s.Parent >= 0 && trace.Spans[s.Parent].Op != s.Op) {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 10e6},
		{ID: 1, Parent: 0, Name: "decode", Start: 1e6, End: 4e6},
		{ID: 2, Parent: 0, Name: "detect", Start: 4e6, End: 9e6},
		{ID: 3, Parent: 2, Name: "deps", Start: 5e6, End: 7e6},
	}
	self := tr.selfTimes()
	for name, want := range map[string]float64{"request": 2, "decode": 3, "detect": 3, "deps": 2} {
		if self[name] != want {
			t.Errorf("self time of %s = %v ms, want %v", name, self[name], want)
		}
	}
}
