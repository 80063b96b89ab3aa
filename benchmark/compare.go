package main

import (
	"fmt"
	"io"
	"sort"

	"repro/benchmark/internal/gen"
)

func metricNames(runs []gen.Result) []string {
	var names []string
	if len(runs) > 0 {
		for name := range runs[0].Metrics {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func metricValues(runs []gen.Result, name string) []float64 {
	vals := make([]float64, 0, len(runs))
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, lower bool) bool {
	for _, x := range a {
		for _, y := range b {
			if lower && y >= x || !lower && y <= x {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, per workload and end-to-end metric, how far b's
// median is from a's against the declared bound. A pair whose
// run-to-run spread exceeds its bound cannot show a regression or its
// absence and reads "unresolved", unless every run of b beats every run
// of a. Files taken on different host shapes are refused. regressed is
// true when some pair worsened by more than its bound or a file holds
// a failed operation.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (regressed bool, err error) {
	var spec gen.Declaration
	var a, b resultFile
	if err := gen.ReadJSON(specPath, &spec); err != nil {
		return false, err
	}
	if err := gen.ReadJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := gen.ReadJSON(bPath, &b); err != nil {
		return false, err
	}
	if a.Host != b.Host {
		return false, fmt.Errorf("host shapes differ (%+v vs %+v): results are not comparable", a.Host, b.Host)
	}
	fmt.Fprintf(w, "host %+v; a: seed %d, b: seed %d\n", a.Host, a.Seed, b.Seed)
	fmt.Fprintf(w, "%-11s %-15s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a median", "b median", "worse", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := a.Runs[wl.Name], b.Runs[wl.Name]
		for _, r := range append(append([]gen.Result{}, ra...), rb...) {
			if !r.Correct {
				regressed = true
				fmt.Fprintf(w, "%-11s a run failed %d of %d operations\n", wl.Name, r.Failed, r.Attempted)
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return regressed, fmt.Errorf("%s/%s: missing from a result file", wl.Name, m.Name)
			}
			ma, mb := gen.Median(va), gen.Median(vb)
			lower := m.Better == "lower"
			worse := (mb - ma) / ma
			if !lower {
				worse = -worse
			}
			spread := max(gen.Spread(va), gen.Spread(vb))
			verdict := "ok"
			switch {
			case spread > m.Bound && !allBetter(va, vb, lower):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "%-11s %-15s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n", wl.Name, m.Name, ma, mb, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	return regressed, nil
}
