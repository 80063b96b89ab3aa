// Command pipeline-stats runs one of the built-in workloads with the
// full observability layer enabled and prints where the time goes: the
// detection/compile phase breakdown (§4's analysis cost), the run-time
// behaviour of the chain executor (stall, queue, per-worker
// utilization), and the realized critical path of the executed task
// DAG compared against the Eq. 5/6 bounds. It also writes the
// execution as a Chrome/Perfetto trace_event file.
//
// With -serve it instead runs the workload continuously and exposes
// the session's live telemetry over HTTP (/metrics, /healthz,
// /debug/phases, /debug/series, /debug/trace; see
// docs/OBSERVABILITY.md) until interrupted.
//
// Usage:
//
//	pipeline-stats -kernel listing3 -n 48 -workers 4
//	pipeline-stats -kernel P5 -n 10 -size 2 -o p5-trace.json
//	pipeline-stats -kernel 3gmm -rows 128 -no-trace
//	pipeline-stats -serve :9090 -kernel P4 -n 16
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/report"
	"repro/polypipe"
)

func main() {
	kernel := flag.String("kernel", "listing3", "workload: listing1, listing3, P1..P10, or {2,3,4}{mm,mmt,gmm,gmmt}")
	n := flag.Int("n", 48, "grid size for listing/P workloads")
	size := flag.Int("size", 2, "SIZE for P workloads")
	rows := flag.Int("rows", 96, "rows for matrix-chain workloads")
	workers := flag.Int("workers", 4, "pipeline workers (0 = GOMAXPROCS)")
	work := flag.Duration("work", time.Millisecond, "extra wall-clock cost per statement instance (the Table 9 SIZE analogue; a timed wait, so overlap is visible on any host); 0 leaves the raw bodies, whose cost is below task overhead")
	minBlock := flag.Int("min-block-iters", 8, "group blocks into tasks of at least this many iterations (Options.MinBlockIters; detection's blocks are unchanged); amortizes per-task handoff")
	backend := flag.String("backend", "", "detection backend: \"\"/explicit (Algorithm 1 over enumerated relations) or symbolic (closed-form constraint algebra, falls back outside its fragment)")
	out := flag.String("o", "trace.json", "Perfetto trace_event output file")
	noTrace := flag.Bool("no-trace", false, "skip writing the trace file")
	cacheDemo := flag.Bool("cache", false, "detect through a cached Session and print the hot/cold serving times plus the cache.* counters")
	aotDemo := flag.Bool("aot", false, "compile the workload through the AOT backend (Session.EmitGo) and print the ir.* pass metrics: bodies specialized, arrays narrowed")
	aotPasses := flag.String("aot-passes", "", "with -aot, IR pass selection: \"\"/all, none, or a comma-separated subset")
	serve := flag.String("serve", "", "run the workload continuously and expose live telemetry on this address (e.g. :9090, or 127.0.0.1:0 for a random port)")
	servePeriod := flag.Duration("serve-period", 250*time.Millisecond, "pause between runs in -serve mode")
	sampleInterval := flag.Duration("sample-interval", 0, "continuous sampler period in -serve mode (0 = default)")
	flag.Parse()

	p, err := polypipe.Kernel(*kernel, *n, *size, *rows)
	if err != nil {
		fatal(err)
	}
	polypipe.AmplifyWork(p, *work)
	opts := polypipe.Options{MinBlockIters: *minBlock, Backend: *backend}
	if *serve != "" {
		stop := make(chan struct{})
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() { <-sig; close(stop) }()
		if err := runServe(os.Stdout, p, *workers, opts, *serve, *servePeriod, *sampleInterval, stop, nil); err != nil {
			fatal(err)
		}
		return
	}
	seq, err := polypipe.NewSession().Run(polypipe.ModeSequential, p)
	if err != nil {
		fatal(err)
	}
	m, err := polypipe.Observe(p, *workers, opts)
	if err != nil {
		fatal(err)
	}
	if m.Result.Hash != seq.Hash {
		fatal(fmt.Errorf("observed run hash %x differs from sequential %x", m.Result.Hash, seq.Hash))
	}
	if err := printStats(os.Stdout, p.Name, m.Workers, seq.Elapsed, m); err != nil {
		fatal(err)
	}
	if *cacheDemo {
		if err := printCacheStats(os.Stdout, p, opts); err != nil {
			fatal(err)
		}
	}
	if *aotDemo {
		if err := printAOTStats(os.Stdout, p, *workers, opts, *aotPasses); err != nil {
			fatal(err)
		}
	}
	if !*noTrace {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := m.WriteTraceJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s (open at ui.perfetto.dev or chrome://tracing)\n", *out)
	}
}

// runServe is the -serve mode: one long-lived session with the
// continuous sampler and the embedded introspection server attached,
// executing the chosen workload in a loop so every scrape sees live
// detect/cache/runtime counters. It returns once stop closes, after
// draining in-flight scrapes via Session.Close. ready, if non-nil, is
// called with the bound address once the server is up (tests use it;
// the CLI reads the printed line instead).
func runServe(out io.Writer, p *polypipe.Program, workers int, opts polypipe.Options,
	addr string, period, sampleIv time.Duration, stop <-chan struct{}, ready func(addr string)) error {
	s := polypipe.NewSession(
		polypipe.WithWorkers(workers),
		polypipe.WithOptions(opts),
		polypipe.WithCache(0),
		polypipe.WithSampler(sampleIv, 0),
		polypipe.WithIntrospection(addr),
	)
	if err := s.IntrospectionError(); err != nil {
		return err
	}
	bound := s.IntrospectionAddr()
	fmt.Fprintf(out, "serving on http://%s  (/metrics /healthz /debug/phases /debug/series /debug/trace)\n", bound)
	fmt.Fprintf(out, "running %s with %d workers every %s; interrupt to stop\n", p.Name, workers, period)
	if ready != nil {
		ready(bound)
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	runs := 0
	for {
		if _, err := s.Run(polypipe.ModePipelined, p); err != nil {
			_ = s.Close()
			return err
		}
		runs++
		select {
		case <-stop:
			fmt.Fprintf(out, "shutting down after %d runs\n", runs)
			return s.Close()
		case <-ticker.C:
		}
	}
}

// printStats renders the full breakdown of one observed execution.
func printStats(w io.Writer, name string, workers int, sequential time.Duration, m *polypipe.Metrics) error {
	fmt.Fprintf(w, "%s: %d workers, %d tasks, max %d concurrent\n\n",
		name, workers, m.Result.Tasks, m.Result.MaxConcurrent)

	fmt.Fprintln(w, "compile phases:")
	pt := report.NewTable("phase", "time")
	for _, ph := range m.Phases {
		if ph.Name == "execute" {
			continue
		}
		pt.Add(ph.Name, report.FormatDuration(ph.Duration))
	}
	fmt.Fprint(w, pt.String())

	s := m.Snapshot
	fmt.Fprintf(w, "\ndetection counts: statements=%d pairs=%d blocks=%d dep_edges=%d\n",
		s.Counter("detect.statements"), s.Counter("detect.pairs"),
		s.Counter("detect.blocks"), s.Counter("detect.dep_edges"))
	var backends []string
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "detect.backend.") {
			backends = append(backends, fmt.Sprintf("%s=%d", strings.TrimPrefix(name, "detect.backend."), v))
		}
	}
	if len(backends) > 0 {
		sort.Strings(backends)
		fmt.Fprintf(w, "detection backend: %s\n", strings.Join(backends, " "))
	}

	a := m.Analysis
	fmt.Fprintln(w, "\nruntime:")
	rt := report.NewTable("metric", "value")
	rt.Add("sequential elapsed", report.FormatDuration(sequential))
	rt.Add("pipeline elapsed", report.FormatDuration(m.Result.Elapsed))
	rt.Add("speedup", report.FormatSpeedup(float64(sequential)/float64(m.Result.Elapsed)))
	rt.Add("makespan", report.FormatDuration(a.Makespan))
	rt.Add("busy (Σ tasks)", report.FormatDuration(a.Busy))
	rt.Add("overlap", report.FormatSpeedup(a.Overlap))
	rt.Add("total stall", report.FormatDuration(a.TotalStall))
	rt.Add("pool utilization", report.FormatPercent(a.Utilization(workers)))
	rt.Add("peak concurrency", strconv.FormatInt(s.Gauge("runtime.peak_concurrency"), 10))
	rt.Add("deps resolved", strconv.FormatInt(s.Counter("runtime.deps_resolved"), 10))
	rt.Add("  by chain order", strconv.FormatInt(s.Counter("runtime.chain_fused"), 10))
	rt.Add("IR reuse hits", strconv.FormatInt(s.Counter("runtime.ir_reuse"), 10))
	rt.Add("statements in flight (peak)", strconv.FormatInt(s.Gauge("runtime.queue_depth_peak"), 10))
	rt.Add("dropped events", strconv.Itoa(a.DroppedEvents))
	fmt.Fprint(w, rt.String())

	fmt.Fprintln(w, "\nper-worker:")
	wt := report.NewTable("worker", "busy", "utilization")
	util := a.WorkerUtilization()
	ws := make([]int, 0, len(a.PerWorker))
	for id := range a.PerWorker {
		ws = append(ws, id)
	}
	sort.Ints(ws)
	for _, id := range ws {
		wt.Add(strconv.Itoa(id), report.FormatDuration(a.PerWorker[id]), report.FormatPercent(util[id]))
	}
	fmt.Fprint(w, wt.String())

	fmt.Fprintf(w, "\ncritical path: %s\n", m.Critical)
	fmt.Fprintf(w, "bounds: critical path %s ≤ pipeline %s ≤ sequential %s",
		report.FormatDuration(m.Critical.Length),
		report.FormatDuration(m.Result.Elapsed),
		report.FormatDuration(sequential))
	if m.Critical.Length <= m.Result.Elapsed && m.Result.Elapsed <= sequential {
		fmt.Fprintln(w, "  [holds]")
	} else {
		fmt.Fprintln(w, "  [VIOLATED — noisy host?]")
	}
	return nil
}

// printCacheStats detects the workload twice through one cached
// session — a cold miss and a hot content-addressed hit — and renders
// the serving times alongside the session's cache counters (the
// cache.* metrics of docs/OBSERVABILITY.md).
func printCacheStats(w io.Writer, p *polypipe.Program, opts polypipe.Options) error {
	s := polypipe.NewSession(
		polypipe.WithOptions(opts),
		polypipe.WithCache(0),
		polypipe.WithRegistry(polypipe.NewRegistry()))
	start := time.Now()
	if _, err := s.Detect(p.SCoP); err != nil {
		return err
	}
	cold := time.Since(start)
	start = time.Now()
	if _, err := s.Detect(p.SCoP); err != nil {
		return err
	}
	hot := time.Since(start)

	fmt.Fprintln(w, "\ndetection cache:")
	t := report.NewTable("metric", "value")
	t.Add("cold detect (miss)", report.FormatDuration(cold))
	t.Add("hot serve (hit)", report.FormatDuration(hot))
	if hot > 0 {
		t.Add("hot/cold speedup", report.FormatSpeedup(float64(cold)/float64(hot)))
	}
	if st, ok := s.CacheStats(); ok {
		t.Add("hits", strconv.FormatInt(st.Hits, 10))
		t.Add("misses", strconv.FormatInt(st.Misses, 10))
		t.Add("evictions", strconv.FormatInt(st.Evictions, 10))
		t.Add("inflight dedup", strconv.FormatInt(st.InflightDedup, 10))
		t.Add("entries", strconv.FormatInt(st.Entries, 10))
	}
	fmt.Fprint(w, t.String())
	return nil
}

// printAOTStats compiles the workload through the AOT backend under
// an observed session and renders what the pass pipeline did: the IR
// shape (ir.* gauges), each pass's observable effect (ir.* counters),
// and the per-phase compile timings (ir.lower, ir.pass.*).
func printAOTStats(w io.Writer, p *polypipe.Program, workers int, opts polypipe.Options, passes string) error {
	s := polypipe.NewSession(
		polypipe.WithWorkers(workers),
		polypipe.WithOptions(opts),
		polypipe.WithRegistry(polypipe.NewRegistry()))
	defer s.Close()
	var src strings.Builder
	start := time.Now()
	if err := s.EmitGo(&src, p.SCoP, polypipe.EmitOptions{Workers: workers, Passes: passes}); err != nil {
		return err
	}
	elapsed := time.Since(start)
	snap := s.Registry().Snapshot()

	fmt.Fprintln(w, "\nAOT backend (internal/ir pass pipeline):")
	t := report.NewTable("metric", "value")
	t.Add("emit time", report.FormatDuration(elapsed))
	t.Add("emitted source bytes", strconv.Itoa(src.Len()))
	t.Add("ir tasks", strconv.FormatInt(snap.Gauge("ir.tasks"), 10))
	t.Add("ir statements", strconv.FormatInt(snap.Gauge("ir.stmts"), 10))
	t.Add("ir arrays", strconv.FormatInt(snap.Gauge("ir.arrays"), 10))
	if e := snap.Gauge("ir.edges"); e > 0 {
		t.Add("ir dep edges (CSR)", strconv.FormatInt(e, 10))
	}
	t.Add("bodies specialized", strconv.FormatInt(snap.Counter("ir.bodies_specialized"), 10))
	t.Add("iteration segments", strconv.FormatInt(snap.Counter("ir.segments"), 10))
	t.Add("arrays narrowed", strconv.FormatInt(snap.Counter("ir.arrays_narrowed"), 10))
	t.Add("extent cells saved", strconv.FormatInt(snap.Counter("ir.extent_cells_saved"), 10))
	t.Add("read-only arrays", strconv.FormatInt(snap.Counter("ir.arrays_readonly"), 10))
	t.Add("dead arrays", strconv.FormatInt(snap.Counter("ir.arrays_dead"), 10))
	fmt.Fprint(w, t.String())

	var phases []string
	for _, ph := range s.PhaseSpans() {
		if strings.HasPrefix(ph.Name, "ir.") {
			phases = append(phases, fmt.Sprintf("%s=%s", ph.Name, report.FormatDuration(ph.Duration)))
		}
	}
	if len(phases) > 0 {
		fmt.Fprintf(w, "\ncompile phases: %s\n", strings.Join(phases, " "))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipeline-stats:", err)
	os.Exit(1)
}
