package obsd_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/obsd"
	"repro/internal/trace"
	"repro/polypipe"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// fakeSession is a minimal obsd.Session for endpoint-level tests.
type fakeSession struct {
	reg     *obs.Registry
	sampler *export.Sampler
	phases  []obs.PhaseSpan
	spans   []trace.Span
	healthy bool
}

func (f *fakeSession) Registry() *obs.Registry     { return f.reg }
func (f *fakeSession) PhaseSpans() []obs.PhaseSpan { return f.phases }
func (f *fakeSession) Sampler() *export.Sampler    { return f.sampler }
func (f *fakeSession) TraceSpans() []trace.Span    { return f.spans }
func (f *fakeSession) StmtNames() map[int]string   { return map[int]string{0: "S0"} }
func (f *fakeSession) Backends() (string, string)  { return "fake-isl", "explicit" }
func (f *fakeSession) Healthy() bool               { return f.healthy }

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpointsDegradeGracefully(t *testing.T) {
	f := &fakeSession{healthy: true}
	ts := httptest.NewServer(obsd.New(f).Handler())
	defer ts.Close()

	if code, _ := get(t, ts.URL+"/metrics"); code != http.StatusNotFound {
		t.Errorf("/metrics without registry = %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/debug/series"); code != http.StatusNotFound {
		t.Errorf("/debug/series without sampler = %d, want 404", code)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := get(t, ts.URL+"/debug/phases"); code != http.StatusOK {
		t.Errorf("/debug/phases empty = %d, want 200", code)
	} else {
		var doc struct {
			ISL    string           `json:"isl_backend"`
			Detect string           `json:"detect_backend"`
			Phases []map[string]any `json:"phases"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/debug/phases JSON: %v", err)
		}
		if doc.ISL != "fake-isl" || doc.Detect != "explicit" || len(doc.Phases) != 0 {
			t.Errorf("/debug/phases empty = %+v, want fake-isl/explicit with no spans", doc)
		}
	}
	if code, body := get(t, ts.URL+"/debug/trace"); code != http.StatusOK || !strings.Contains(body, "traceEvents") {
		t.Errorf("/debug/trace empty = %d %q, want a trace_event document", code, body)
	}

	f.healthy = false
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz unhealthy = %d, want 503", code)
	}
}

// fixedRunServer builds a session with live telemetry, executes the
// fixed Table-9 run twice (the second run exercises IR reuse so the
// runtime.ir_reuse counter exists), and mounts its introspection
// handler on an httptest server.
func fixedRunServer(t *testing.T) (*polypipe.Session, *httptest.Server) {
	t.Helper()
	p, err := polypipe.Table9Program("P4", 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := polypipe.NewSession(
		polypipe.WithWorkers(2),
		polypipe.WithCache(0),
		polypipe.WithSampler(time.Hour, 8), // manual ticks only: deterministic sample count
	)
	for i := 0; i < 2; i++ {
		if _, err := s.Run(polypipe.ModePipelined, p); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(obsd.New(s).Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

var valueRE = regexp.MustCompile(` -?[0-9]+(\.[0-9]+)?$`)

// normalizeExposition replaces every sample value with "V", leaving
// names, labels, and comments — the scrape's shape — intact.
func normalizeExposition(body string) string {
	var out []string
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = valueRE.ReplaceAllString(line, " V")
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n") + "\n"
}

// TestMetricsGolden locks the /metrics scrape of a fixed Table-9 run:
// with values normalized, the exposed family set — detect, cache,
// runtime, and trace families included — must match the committed
// golden byte for byte.
func TestMetricsGolden(t *testing.T) {
	_, ts := fixedRunServer(t)
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", code)
	}
	got := normalizeExposition(body)
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/obsd/ -run Golden -update)", err)
	}
	if got != string(want) {
		t.Errorf("normalized /metrics diverges from %s (regenerate with -update if intended)\ngot:\n%s", golden, got)
	}
	for _, fam := range []string{
		"# TYPE detect_statements counter",
		"# TYPE cache_hits counter",
		"# TYPE cache_entries gauge",
		"# TYPE runtime_executed counter",
		"# TYPE runtime_queue_depth gauge",
		"# TYPE runtime_task_ns histogram",
		"# TYPE trace_events_dropped counter",
		`runtime_task_ns_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("/metrics missing %q", fam)
		}
	}
}

func TestDebugEndpointsOnFixedRun(t *testing.T) {
	s, ts := fixedRunServer(t)

	// Two manual sampler ticks -> two distinct timestamped samples.
	s.Sampler().TakeSample(time.Time{})
	time.Sleep(2 * time.Millisecond)
	s.Sampler().TakeSample(time.Time{})
	code, body := get(t, ts.URL+"/debug/series")
	if code != http.StatusOK {
		t.Fatalf("/debug/series = %d, want 200", code)
	}
	var series export.Series
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("series JSON: %v", err)
	}
	if len(series.Samples) < 2 {
		t.Fatalf("series has %d samples, want >= 2", len(series.Samples))
	}
	last := series.Samples[len(series.Samples)-1]
	if last.Counters["runtime.executed"] == 0 {
		t.Error("sampler did not capture runtime.executed")
	}
	if series.Samples[0].When.Equal(last.When) {
		t.Error("want distinct sample timestamps")
	}

	code, body = get(t, ts.URL+"/debug/phases")
	if code != http.StatusOK {
		t.Fatalf("/debug/phases = %d, want 200", code)
	}
	var phasesDoc struct {
		ISL    string           `json:"isl_backend"`
		Detect string           `json:"detect_backend"`
		Phases []map[string]any `json:"phases"`
	}
	if err := json.Unmarshal([]byte(body), &phasesDoc); err != nil {
		t.Fatalf("phases JSON: %v", err)
	}
	if phasesDoc.ISL == "" || phasesDoc.Detect != "explicit" {
		t.Errorf("/debug/phases backends = %q/%q, want a named isl backend and %q",
			phasesDoc.ISL, phasesDoc.Detect, "explicit")
	}
	names := map[string]bool{}
	for _, ph := range phasesDoc.Phases {
		names[ph["name"].(string)] = true
	}
	for _, want := range []string{"detect", "codegen.lower"} {
		found := false
		for n := range names {
			if strings.HasPrefix(n, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("/debug/phases missing a %q* span (got %v)", want, names)
		}
	}

	code, body = get(t, ts.URL+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace = %d, want 200", code)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("/debug/trace has no events for a traced run")
	}
}

// TestConcurrentScrapeWhileExecuting hammers every endpoint while the
// session executes pipelined runs — the acceptance race test (run
// under -race by make race).
func TestConcurrentScrapeWhileExecuting(t *testing.T) {
	p, err := polypipe.Table9Program("P4", 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := polypipe.NewSession(
		polypipe.WithWorkers(2),
		polypipe.WithCache(0),
		polypipe.WithSampler(time.Millisecond, 32),
	)
	defer s.Close()
	ts := httptest.NewServer(obsd.New(s).Handler())
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := s.Run(polypipe.ModePipelined, p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				for _, ep := range []string{"/metrics", "/healthz", "/debug/series", "/debug/phases", "/debug/trace"} {
					resp, err := http.Get(ts.URL + ep)
					if err != nil {
						t.Errorf("GET %s: %v", ep, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s = %d while executing", ep, resp.StatusCode)
					}
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(done)
	wg.Wait()
}

// TestHealthzAcrossClose covers the served lifecycle end to end on a
// real listener: healthy scrape, Close, then 503/refused.
func TestHealthzAcrossClose(t *testing.T) {
	s := polypipe.NewSession(polypipe.WithIntrospection("127.0.0.1:0"))
	if err := s.IntrospectionError(); err != nil {
		t.Fatal(err)
	}
	addr := s.IntrospectionAddr()
	if addr == "" {
		t.Fatal("no bound introspection address")
	}
	code, body := get(t, "http://"+addr+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz before close = %d %q", code, body)
	}
	if code, _ := get(t, "http://"+addr+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics before close = %d", code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// After Close the listener is down: the scrape must fail outright
	// (or, if a racing in-flight connection sneaks through the drain,
	// report 503).
	resp, err := http.Get("http://" + addr + "/healthz")
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("/healthz after close = %d, want refused or 503", resp.StatusCode)
		}
	}
	if !s.Healthy() {
		return
	}
	t.Fatal("session still healthy after Close")
}

func ExampleNew() {
	s := polypipe.NewSession(polypipe.WithIntrospection("127.0.0.1:0"))
	defer s.Close()
	fmt.Println(s.IntrospectionError() == nil, s.IntrospectionAddr() != "")
	// Output: true true
}
