package gen

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run of one workload reports: the last line of its
// standard output is this object as JSON.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// NewResult returns an empty, so far correct, result.
func NewResult() *Result { return &Result{Correct: true, Metrics: map[string]Metric{}} }

// Set records a metric.
func (r *Result) Set(name string, value float64, unit string) {
	r.Metrics[name] = Metric{Value: value, Unit: unit}
}

// Op counts one checked operation; a failed one makes the run
// incorrect. why is printed to standard error.
func (r *Result) Op(ok bool, why string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Correct = false
		fmt.Fprintf(os.Stderr, "FAIL: "+why+"\n", args...)
	}
}

// Print writes every metric by name with its unit, then the result
// object on the last line.
func (r *Result) Print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-28s %14s %s\n", name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// Host is the shape of the machine a result was taken on; results from
// different shapes are not compared.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// ThisHost describes the running process's host.
func ThisHost() Host {
	return Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// RestartPeakRSS gives the memory the process holds but does not use
// back to the system and restarts the resident-set high-water mark from
// what is left, so that the next PeakRSSMB reads the peak since this
// call.
func RestartPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// PeakRSSMB reads the process's resident-set high-water mark (VmHWM).
func PeakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// Scale sizes one run. A smoke run (the tests) does the least that
// still produces every metric; SkipBuild additionally leaves out go
// build of the emitted sources, so readings taken from the binaries
// are 0.
type Scale struct {
	Seconds   float64
	Smoke     bool
	SkipBuild bool
}

// Reps is n, or the least a smoke run gets away with.
func (s Scale) Reps(n, smoke int) int {
	if s.Smoke {
		return smoke
	}
	return n
}

// Declared is one metric as BENCHMARK.json declares it (Bound only on
// end-to-end metrics).
type Declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Declaration is the part of BENCHMARK.json the benchmark reads back.
type Declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []Declared `json:"end_to_end"`
	PerLayer []Declared `json:"per_layer"`
}

// ReadJSON decodes the file at path into v.
func ReadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// Undeclared lists every way r's metrics differ from the declared
// ones: a declared metric missing or in another unit, a reported one
// not declared, a malformed name.
func (r *Result) Undeclared(declared []Declared) []string {
	var problems []string
	want := map[string]bool{}
	for _, d := range declared {
		want[d.Name] = true
		got, ok := r.Metrics[d.Name]
		switch {
		case !metricName.MatchString(d.Name):
			problems = append(problems, fmt.Sprintf("metric name %q", d.Name))
		case !ok:
			problems = append(problems, fmt.Sprintf("declared metric %s not reported", d.Name))
		case got.Unit != d.Unit:
			problems = append(problems, fmt.Sprintf("%s reported in %q, declared in %q", d.Name, got.Unit, d.Unit))
		}
	}
	for name := range r.Metrics {
		if !want[name] {
			problems = append(problems, fmt.Sprintf("reported metric %s is not declared", name))
		}
	}
	sort.Strings(problems)
	return problems
}
