package polypipe

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Observability re-exports: the measurement substrate every perf PR
// reports against (see docs/OBSERVABILITY.md).
type (
	// Metrics is the full observation of one pipelined run: result,
	// phase timings, span analysis, critical path, metrics snapshot.
	Metrics = exec.Observation
	// Registry is the dependency-free metrics store (counters, gauges,
	// histograms; all safe under -race).
	Registry = obs.Registry
	// Recorder bundles a registry with a phase timer and event sink.
	Recorder = obs.Recorder
	// PhaseSpan is one timed compile or run phase.
	PhaseSpan = obs.PhaseSpan
	// Analysis summarizes a traced execution (Eq. 5/6 aggregates,
	// stall, utilization).
	Analysis = trace.Analysis
	// CriticalPath is the realized longest chain of an executed DAG.
	CriticalPath = trace.CriticalPath
)

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewRecorder returns a recorder over a fresh registry.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// Observe runs the program's cross-loop pipeline with the full
// observability layer enabled — detection-phase timings, runtime
// queue/stall/utilization metrics, per-task spans, and the realized
// critical path — and returns everything measured. The observed run
// stays within a few percent of an unobserved one (the instruments are
// single atomic operations; see BenchmarkObservationOverhead).
func Observe(p *Program, workers int, opts Options) (*Metrics, error) {
	return exec.PipelinedObserved(p, workers, opts, nil)
}

// TraceJSON runs the pipelined program with tracing and writes a
// Chrome/Perfetto trace_event JSON timeline: one track per worker, one
// per statement, flow arrows along data-dependency edges. Open the
// file at ui.perfetto.dev or chrome://tracing.
func TraceJSON(w io.Writer, p *Program, workers int, opts Options) error {
	o, err := exec.PipelinedObserved(p, workers, opts, nil)
	if err != nil {
		return err
	}
	return o.WriteTraceJSON(w)
}

// AmplifyWork makes every dynamic statement instance of p cost an
// extra d of wall-clock time (a timed wait), leaving the computed
// values and the verification Hash unchanged. It is the listing
// kernels' counterpart of the Table 9 programs' SIZE knob: their raw
// bodies are a handful of float ops, so on wall-clock runs
// task-management overhead swamps the §6 run-time behaviour the
// observability layer exists to show (overlap, stall, utilization).
// Because the cost is waiting rather than computing, schedule overlap
// is visible even on single-core hosts (see kernels.Amplify).
func AmplifyWork(p *Program, d time.Duration) { kernels.Amplify(p, d) }

// Kernel builds one of the built-in workloads by name: "listing1",
// "listing3", the Table 9 programs "P1".."P10" (n, size), or a
// matrix-chain kernel like "3gmm" ({2,3,...}{mm,mmt,gmm,gmmt}, rows).
// The shared vocabulary of the trace-viz, pipeline-stats, and
// bench-pipeline commands.
func Kernel(name string, n, size, rows int) (*Program, error) {
	switch {
	case name == "listing1":
		return Listing1(n), nil
	case name == "listing3":
		return Listing3(n), nil
	case strings.HasPrefix(name, "P"):
		return Table9Program(name, n, size)
	}
	if len(name) >= 3 {
		chain, err := strconv.Atoi(name[:1])
		if err == nil {
			for _, v := range []Variant{MM, MMT, GMM, GMMT} {
				if name[1:] == v.String() {
					return MMChain(chain, rows, v), nil
				}
			}
		}
	}
	return nil, fmt.Errorf("unknown kernel %q", name)
}
