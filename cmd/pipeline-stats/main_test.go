package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/export"
	"repro/polypipe"
)

// TestPrintStatsEndToEnd observes a real (small) kernel run and checks
// the printed breakdown contains every section the CLI promises, plus
// the acceptance ordering critical path ≤ pipeline makespan.
func TestPrintStatsEndToEnd(t *testing.T) {
	p, err := polypipe.Kernel("listing3", 16, 2, 96)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := polypipe.NewSession().Run(polypipe.ModeSequential, p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := polypipe.Observe(p, 4, polypipe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := printStats(&b, p.Name, 4, seq.Elapsed, m); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"compile phases:",
		"detect.pipeline_maps",
		"detect.dependency_relations",
		"codegen.lower",
		"detection counts:",
		"total stall",
		"pool utilization",
		"per-worker:",
		"critical path:",
		"bounds:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if m.Critical.Length <= 0 {
		t.Error("critical path length not positive")
	}
	if m.Critical.Length > m.Analysis.Makespan {
		t.Errorf("critical path %v exceeds makespan %v", m.Critical.Length, m.Analysis.Makespan)
	}
	if m.Analysis.DroppedEvents != 0 {
		t.Errorf("dropped events = %d", m.Analysis.DroppedEvents)
	}
}

// TestServeModeEndToEnd drives the -serve loop in-process on a random
// port: it waits for the printed address, scrapes /metrics and
// /healthz live, waits until /debug/series carries at least two
// timestamped samples, then interrupts the loop and checks the
// shutdown is clean.
func TestServeModeEndToEnd(t *testing.T) {
	p, err := polypipe.Kernel("P4", 8, 2, 96)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- runServe(io.Discard, p, 2, polypipe.Options{},
			"127.0.0.1:0", 2*time.Millisecond, 2*time.Millisecond, stop,
			func(addr string) { addrCh <- addr })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-errCh:
		t.Fatalf("serve loop exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve loop never reported its address")
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	// Poll until the sampler has two samples and the loop's first run
	// has finished (the address is reported before that run starts, and
	// the sampler ticks whether or not a run has completed).
	deadline := time.Now().Add(10 * time.Second)
	var series export.Series
	for {
		_, body := get("/debug/series")
		if err := json.Unmarshal([]byte(body), &series); err != nil {
			t.Fatalf("/debug/series JSON: %v", err)
		}
		_, metrics := get("/metrics")
		if len(series.Samples) >= 2 && strings.Contains(metrics, "runtime_executed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sampler at %d samples, first run finished: %v", len(series.Samples), strings.Contains(metrics, "runtime_executed"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	last := series.Samples[len(series.Samples)-1]
	if series.Samples[0].When.Equal(last.When) {
		t.Error("series samples share a timestamp")
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE detect_statements counter",
		"# TYPE runtime_executed counter",
		"# TYPE runtime_task_ns histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	close(stop)
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("serve loop shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve loop did not stop")
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		// A racing in-flight connection may still answer; a fresh
		// connection after Shutdown normally gets refused outright.
		t.Log("listener still answered after shutdown (in-flight drain)")
	}
}

// TestTraceJSONIsValidTraceEvent checks the exported file is loadable
// trace_event JSON: an object with a traceEvents array whose entries
// carry the required keys.
func TestTraceJSONIsValidTraceEvent(t *testing.T) {
	p, err := polypipe.Kernel("listing1", 12, 2, 96)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := polypipe.TraceJSON(&b, p, 2, polypipe.Options{}); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &file); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	sawComplete := false
	for _, ev := range file.TraceEvents {
		ph, ok := ev["ph"].(string)
		if !ok || ph == "" {
			t.Fatalf("event missing ph: %v", ev)
		}
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
		if ph == "X" {
			sawComplete = true
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event missing dur: %v", ev)
			}
		}
	}
	if !sawComplete {
		t.Error("no complete (X) events in trace")
	}
}

// TestPrintAOTStats drives the -aot mode in-process: the emitted
// metrics table must report every pass's observable effect with
// non-zero values on a workload the pipeline actually transforms.
func TestPrintAOTStats(t *testing.T) {
	p, err := polypipe.Kernel("listing3", 16, 2, 96)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := printAOTStats(&b, p, 2, polypipe.Options{}, ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"AOT backend (internal/ir pass pipeline):",
		"ir tasks",
		"bodies specialized",
		"arrays narrowed",
		"ir.pass.specialize",
		"ir.pass.narrow",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-aot output missing %q:\n%s", want, out)
		}
	}
	for _, row := range []string{"bodies specialized"} {
		if strings.Contains(out, row+"  0 ") {
			t.Errorf("%s reported zero effect:\n%s", row, out)
		}
	}

	// Pass selection flows through: with "none" nothing runs.
	b.Reset()
	if err := printAOTStats(&b, p, 2, polypipe.Options{}, "none"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "ir.pass.") {
		t.Errorf("-aot-passes none still ran passes:\n%s", b.String())
	}
}
