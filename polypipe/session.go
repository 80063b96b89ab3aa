package polypipe

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cache/disk"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gogen"
	"repro/internal/isl"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/obsd"
	"repro/internal/par"
	"repro/internal/runtime"
	"repro/internal/simsched"
	"repro/internal/trace"
)

// Mode selects the executor a Session.Run call uses. The modes cover
// the paper's evaluation matrix: the sequential reference, the
// cross-loop pipelined executor, and the Polly-style per-loop
// baseline. The emitted program (Session.EmitGo) is the pipeline's
// second back end.
type Mode int

const (
	// ModeSequential runs nests in program order (the reference).
	ModeSequential Mode = iota
	// ModePipelined runs the detected pipeline on the chain executor:
	// one chain of block tasks per statement.
	ModePipelined
	// ModeParLoop runs the Polly-style per-loop parallel baseline.
	ModeParLoop
)

// String names the mode as the executors report it.
func (m Mode) String() string {
	switch m {
	case ModeSequential:
		return "sequential"
	case ModePipelined:
		return "pipelined"
	case ModeParLoop:
		return "parloop"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// CacheStats is a point-in-time read of a session cache's counters.
type CacheStats = cache.Stats

// Session is one configured handle on the detection pipeline: a worker
// count, detection options, an optional content-addressed detection
// cache, an optional metrics registry, and a context bounding waits.
// It consolidates what used to be a family of free functions (Detect,
// RunPipelined*, Sim*, Verify, Speedup, TracePipelined) behind one
// object — see docs/API.md for the migration table.
//
// A Session is safe for concurrent use: detection results are frozen,
// the cache is sharded and deduplicates concurrent misses, and Run
// touches only per-call state. The zero configuration (NewSession())
// behaves exactly like the legacy free functions: no cache, no
// registry, background context, GOMAXPROCS workers.
type Session struct {
	workers     int
	opts        Options
	backend     string
	wantBackend bool
	ctx         context.Context
	registry    *obs.Registry
	cache       *cache.Cache
	cacheCap    int
	wantCache   bool
	diskDir     string
	diskErr     error

	// Live-telemetry state (WithIntrospection / WithSampler): the
	// embedded introspection server, the continuous sampler feeding
	// /debug/series, and the trace collector behind /debug/trace.
	introAddr   string
	intro       *obsd.Server
	introErr    error
	sampler     *export.Sampler
	sampleIv    time.Duration
	sampleCap   int
	wantSampler bool
	traceC      *trace.Collector
	closed      atomic.Bool
	closeOnce   sync.Once
	closeErr    error

	// programs caches compiled task programs (and, through them, the
	// lowered runtime IR) per SCoP instance, so repeated Run/Simulate/
	// Trace calls on one program build the IR once and reuse it. Keyed
	// by SCoP pointer identity, not content: task bodies are closures
	// over one instance's arrays, so a content-equal SCoP from another
	// instance must not share them.
	progMu   sync.Mutex
	programs map[progKey]*codegen.TaskProgram

	// stmtNames accumulates statement display names of every compiled
	// program (guarded by progMu), so /debug/trace can label spans.
	stmtNames map[int]string
}

// progKey identifies one compiled program: the SCoP instance plus the
// granularity baked into its chain plan.
type progKey struct {
	sc         *SCoP
	blockIters int
}

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// WithWorkers sets the execution and detection worker-pool width
// (0 = GOMAXPROCS). It also seeds Options.Workers unless WithOptions
// set one explicitly.
func WithWorkers(n int) SessionOption {
	return func(s *Session) { s.workers = n }
}

// WithOptions sets the detection options every Detect this session
// issues uses. Options.Workers, when zero, inherits WithWorkers.
func WithOptions(opts Options) SessionOption {
	return func(s *Session) { s.opts = opts }
}

// WithBackend selects the detection backend every Detect this session
// issues uses: "" or "explicit" for Algorithm 1 over enumerated
// relations, BackendSymbolic for the closed-form constraint algebra
// (with automatic fallback to the explicit path outside its fragment).
// It overrides Options.Backend regardless of option order, so it
// composes with WithOptions.
func WithBackend(name string) SessionOption {
	return func(s *Session) { s.backend, s.wantBackend = name, true }
}

// WithCache attaches a content-addressed detection cache bounded to
// capacity entries (<= 0 means the default, cache.DefaultCapacity).
// With a cache, Session.Detect on a previously seen SCoP — same
// polyhedral content under any name, any instance — returns the frozen
// cached result instead of re-running Algorithm 1, and concurrent
// misses for one SCoP run Detect once. Cache counters land on the
// session registry (see docs/OBSERVABILITY.md).
func WithCache(capacity int) SessionOption {
	return func(s *Session) { s.wantCache, s.cacheCap = true, capacity }
}

// WithDiskCache backs the in-memory detection cache with the durable
// content-addressed disk tier rooted at dir (created if absent): a
// memory miss probes the directory before running Algorithm 1, and
// completed detections are written through, so a restarted process
// warms from disk at file-read cost instead of re-detecting
// (docs/SERVING.md, "Cache tiers"). It implies WithCache with the
// default capacity unless WithCache set one. A store that cannot be
// opened degrades to the memory-only cache; DiskCacheError reports
// why.
func WithDiskCache(dir string) SessionOption {
	return func(s *Session) { s.diskDir = dir }
}

// WithRegistry attaches a metrics registry: detection phase timings
// and counts, and — with WithCache — the cache.* counters, land here.
func WithRegistry(r *Registry) SessionOption {
	return func(s *Session) { s.registry = r }
}

// WithContext bounds the session's cancelable waits: batch admission
// and cache in-flight waits stop when ctx is done. Detection itself
// always runs to completion (and, when cached, still fills the cache).
func WithContext(ctx context.Context) SessionOption {
	return func(s *Session) { s.ctx = ctx }
}

// WithIntrospection starts the embedded introspection server on addr
// (host:port; port 0 picks a free one — read it back with
// IntrospectionAddr). The server exposes /metrics (Prometheus text
// format), /healthz, /debug/phases, /debug/series (the continuous
// sampler), and /debug/trace (Perfetto JSON of the most recent
// pipelined run); see docs/OBSERVABILITY.md. It implies a registry
// (one is created if WithRegistry did not attach one) and a sampler
// with the default interval unless WithSampler configured it.
// Shut the server down with Session.Close; a failure to listen is
// reported by IntrospectionError.
func WithIntrospection(addr string) SessionOption {
	return func(s *Session) { s.introAddr = addr }
}

// WithSampler configures the continuous time-series sampler: every
// interval the session registry (detect/cache/runtime families,
// runtime queue-depth/deps counters included) is snapshotted
// into a fixed ring of capacity timestamped samples, served at
// /debug/series. interval <= 0 means export.DefaultSampleInterval;
// capacity <= 0 means export.DefaultSampleCapacity. A sampler implies
// a registry. Without WithIntrospection the sampler still runs and is
// readable via Session.Sampler().
func WithSampler(interval time.Duration, capacity int) SessionOption {
	return func(s *Session) { s.wantSampler, s.sampleIv, s.sampleCap = true, interval, capacity }
}

// NewSession builds a session from the given options.
func NewSession(options ...SessionOption) *Session {
	s := &Session{ctx: context.Background()}
	for _, o := range options {
		o(s)
	}
	if s.opts.Workers == 0 {
		s.opts.Workers = s.workers
	}
	if s.wantBackend {
		s.opts.Backend = s.backend
	}
	if (s.introAddr != "" || s.wantSampler) && s.registry == nil {
		// Live telemetry needs somewhere to read from.
		s.registry = obs.NewRegistry()
	}
	if s.registry != nil && s.opts.Obs == nil {
		s.opts.Obs = &obs.Recorder{Reg: s.registry, Phases: &obs.Phases{}}
	}
	if s.wantCache || s.diskDir != "" {
		s.cache = cache.New(s.cacheCap, s.registry)
		if s.diskDir != "" {
			store, err := disk.New(s.diskDir, s.registry)
			if err != nil {
				s.diskErr = err
			} else {
				s.cache.SetTier(store)
			}
		}
	}
	s.programs = make(map[progKey]*codegen.TaskProgram)
	s.stmtNames = make(map[int]string)
	if s.introAddr != "" || s.wantSampler {
		s.sampler = export.NewSampler(s.registry.Snapshot, s.sampleIv, s.sampleCap)
		s.sampler.Start()
		s.traceC = trace.NewCollector()
		s.traceC.SetRegistry(s.registry)
	}
	if s.introAddr != "" {
		s.intro = obsd.New(s)
		if _, err := s.intro.Serve(s.introAddr); err != nil {
			s.introErr = err
		}
	}
	return s
}

// Registry returns the session's metrics registry, or nil.
func (s *Session) Registry() *Registry { return s.registry }

// Context returns the session's context (never nil).
func (s *Session) Context() context.Context { return s.ctx }

// PhaseSpans returns the compile/run phase timings recorded so far
// (nil without a registry). Part of the obsd.Session surface backing
// /debug/phases.
func (s *Session) PhaseSpans() []obs.PhaseSpan {
	if s.opts.Obs == nil {
		return nil
	}
	return s.opts.Obs.Phases.Spans()
}

// Sampler returns the session's continuous sampler, or nil when
// neither WithSampler nor WithIntrospection was given.
func (s *Session) Sampler() *export.Sampler { return s.sampler }

// TraceSpans returns the task spans of the most recent (or currently
// running) traced pipelined execution; empty without introspection.
func (s *Session) TraceSpans() []trace.Span {
	if s.traceC == nil {
		return nil
	}
	return s.traceC.Spans()
}

// StmtNames maps statement index to display name across every program
// this session has compiled, labelling /debug/trace spans.
func (s *Session) StmtNames() map[int]string {
	s.progMu.Lock()
	defer s.progMu.Unlock()
	out := make(map[int]string, len(s.stmtNames))
	for k, v := range s.stmtNames {
		out[k] = v
	}
	return out
}

// Backends names the compiled isl backend and the session's configured
// detection backend ("explicit" for the default enumerated path). Part
// of the obsd.Session surface: /debug/phases reports both, so live
// telemetry shows which algebra handled a request.
func (s *Session) Backends() (islBackend, detectBackend string) {
	detectBackend = s.opts.Backend
	if detectBackend == "" {
		detectBackend = "explicit"
	}
	return isl.BackendName, detectBackend
}

// Healthy reports whether the session is open (Close not yet called);
// /healthz turns 503 once it is false.
func (s *Session) Healthy() bool { return !s.closed.Load() }

// IntrospectionAddr returns the introspection server's bound listen
// address ("127.0.0.1:43817"), or "" when introspection is off or
// failed to start.
func (s *Session) IntrospectionAddr() string {
	if s.intro == nil {
		return ""
	}
	a := s.intro.Addr()
	if a == nil {
		return ""
	}
	return a.String()
}

// IntrospectionError reports why the introspection server failed to
// start, or nil.
func (s *Session) IntrospectionError() error { return s.introErr }

// Close shuts the session down: the sampler stops, /healthz flips to
// 503, the introspection server drains in-flight scrapes before its
// listener closes (a few seconds' grace), and subsequent
// Detect/DetectBatch/Run/Simulate calls fail with ErrSessionClosed —
// the typed signal a serving layer maps to 503. Calls already in
// flight run to completion. It is idempotent; later calls return the
// first result.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		if s.sampler != nil {
			s.sampler.Stop()
		}
		if s.intro != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			s.closeErr = s.intro.Shutdown(ctx)
		}
	})
	return s.closeErr
}

// DiskCacheError reports why the WithDiskCache store failed to open
// (the session then runs memory-only), or nil.
func (s *Session) DiskCacheError() error { return s.diskErr }

// CacheStats snapshots the session cache's counters; ok is false when
// the session has no cache.
func (s *Session) CacheStats() (st CacheStats, ok bool) {
	if s.cache == nil {
		return CacheStats{}, false
	}
	return s.cache.Stats(), true
}

// Detect runs (or, with a cache, serves) Algorithm 1 on sc under the
// session's options; one result serves every granularity. After Close
// it fails with ErrSessionClosed; a wait ended by the session context
// fails with ErrDetectCanceled.
func (s *Session) Detect(sc *SCoP) (*Info, error) {
	if s.closed.Load() {
		return nil, ErrSessionClosed
	}
	if s.cache != nil {
		info, err := s.cache.Get(s.ctx, sc, s.opts)
		return info, wrapCtxErr(err)
	}
	if err := s.ctx.Err(); err != nil {
		return nil, wrapCtxErr(err)
	}
	return core.Detect(sc, s.opts)
}

// EmitOptions tunes Session.EmitGo — the AOT backend run under a
// session, so the detection cache and fingerprint layers apply to
// emission exactly as they do to Detect.
type EmitOptions struct {
	// Workers is the worker count baked into the emitted main
	// (0 = the session's worker count; the emitted binary can still
	// override it with its first argument).
	Workers int
	// Passes selects the IR pass pipeline: "" or "all" runs every
	// pass, "none" emits the unoptimized program, otherwise a
	// comma-separated subset of pass names (ir.Passes).
	Passes string
}

// EmitGo detects sc under the session's options (served from the
// cache when one is configured) and writes a standalone Go program
// for it through the AOT backend. Compile phases and ir.* pass
// metrics land in the session's registry. After Close it fails with
// ErrSessionClosed; a SCoP outside the accepted fragment fails with
// ErrNotPipelinable.
func (s *Session) EmitGo(w io.Writer, sc *SCoP, o EmitOptions) error {
	info, err := s.Detect(sc)
	if err != nil {
		return err
	}
	workers := o.Workers
	if workers <= 0 {
		workers = par.Workers(s.workers)
	}
	return gogen.EmitWith(w, info, gogen.EmitOptions{
		Workers:       workers,
		Passes:        o.Passes,
		MinBlockIters: s.opts.MinBlockIters,
		Obs:           s.opts.Obs,
	})
}

// DetectBatch detects a batch of SCoPs, returning results in input
// order with per-item errors. With a cache the batch is partitioned
// into hits and misses and identical misses collapse onto one Detect;
// without one every item is detected. Either way misses fan out over
// the session's worker pool, and items not yet started when the
// session context is done are marked with its error.
func (s *Session) DetectBatch(scs []*SCoP) ([]*Info, []error) {
	if s.closed.Load() {
		errs := make([]error, len(scs))
		for i := range errs {
			errs[i] = ErrSessionClosed
		}
		return make([]*Info, len(scs)), errs
	}
	var infos []*Info
	var errs []error
	if s.cache != nil {
		infos, errs = s.cache.GetBatch(s.ctx, scs, s.opts)
	} else {
		infos, errs = core.DetectBatch(s.ctx, scs, s.opts)
	}
	for i, err := range errs {
		errs[i] = wrapCtxErr(err)
	}
	return infos, errs
}

// compile detects (through the session cache when present) and
// compiles p's pipeline into a task program at the session's
// MinBlockIters. Compiled programs are cached per SCoP instance, so
// repeated calls reuse both the program and its lowered runtime IR;
// with a session registry, IR reuse counts "runtime.ir_reuse" hits.
func (s *Session) compile(p *Program) (*codegen.TaskProgram, error) {
	blockIters := s.opts.MinBlockIters
	key := progKey{sc: p.SCoP, blockIters: blockIters}
	s.progMu.Lock()
	prog, ok := s.programs[key]
	s.progMu.Unlock()
	if !ok {
		info, err := s.Detect(p.SCoP)
		if err != nil {
			return nil, fmt.Errorf("exec: detect: %w", err)
		}
		prog, err = codegen.CompileWithOptions(info, codegen.CompileOptions{MinBlockIters: blockIters, Obs: s.opts.Obs})
		if err != nil {
			return nil, fmt.Errorf("exec: compile: %w", err)
		}
		s.progMu.Lock()
		if prev, ok := s.programs[key]; ok {
			prog = prev // concurrent miss: keep the first, IR and all
		} else {
			s.programs[key] = prog
			for _, st := range p.SCoP.Stmts {
				s.stmtNames[st.Index] = st.Name
			}
		}
		s.progMu.Unlock()
	}
	prog.LowerObserved(s.opts.Obs)
	return prog, nil
}

// execCompiled executes a compiled program on the unified runtime with
// the session's live telemetry attached: with a registry the runtime.*
// instrument catalogue (deps_resolved, chain_fused, queue_depth, stall
// and task histograms) lands on it, and with introspection the trace
// collector is reset and re-armed so /debug/trace shows this run. The
// timed region covers execution only, like exec.RunCompiled.
func (s *Session) execCompiled(p *Program, prog *codegen.TaskProgram, workers int, executor string) Result {
	ir := prog.Lower()
	var eo runtime.ExecOptions
	if s.registry != nil {
		eo.Reg = s.registry
	}
	if s.traceC != nil {
		s.traceC.Reset()
		eo.Trace = s.traceC.Hook()
	}
	p.Reset()
	start := time.Now()
	st := ir.Execute(workers, eo)
	elapsed := time.Since(start)
	return Result{
		Executor:      executor,
		Elapsed:       elapsed,
		Hash:          p.Hash(),
		Tasks:         st.Executed,
		MaxConcurrent: st.MaxConcurrent,
		ChainFused:    st.ChainFused,
	}
}

// Run executes p under the given mode with the session's worker count
// and returns the execution result. Detection goes through the session
// cache when one is attached, so repeated runs (and runs of
// content-identical programs) skip Algorithm 1.
func (s *Session) Run(mode Mode, p *Program) (Result, error) {
	if s.closed.Load() {
		return Result{}, ErrSessionClosed
	}
	if err := s.ctx.Err(); err != nil {
		return Result{}, wrapCtxErr(err)
	}
	workers := par.Workers(s.workers)
	switch mode {
	case ModeSequential:
		return exec.Sequential(p), nil
	case ModeParLoop:
		return exec.ParLoop(p, workers), nil
	case ModePipelined:
		prog, err := s.compile(p)
		if err != nil {
			return Result{}, err
		}
		return s.execCompiled(p, prog, workers, "pipeline"), nil
	}
	return Result{}, fmt.Errorf("%w %v", ErrUnknownMode, mode)
}

// Verify checks that the pipelined and per-loop executions reproduce
// the sequential result bit-for-bit, with detection going through the
// session (cache and context included).
func (s *Session) Verify(p *Program) error {
	want := exec.Sequential(p).Hash
	pipe, err := s.Run(ModePipelined, p)
	if err != nil {
		return err
	}
	if pipe.Hash != want {
		return fmt.Errorf("exec: pipeline result differs from sequential (%x vs %x)", pipe.Hash, want)
	}
	if got, err := s.Run(ModeParLoop, p); err != nil {
		return err
	} else if got.Hash != want {
		return fmt.Errorf("exec: parloop result differs from sequential (%x vs %x)", got.Hash, want)
	}
	return nil
}

// Speedup measures sequential vs pipelined wall time (one run each,
// detection amortized — and cached across calls when the session has a
// cache) and returns the ratio.
func (s *Session) Speedup(p *Program) (seq, pipe time.Duration, speedup float64, err error) {
	prog, err := s.compile(p)
	if err != nil {
		return 0, 0, 0, err
	}
	seqRes := exec.Sequential(p)
	pipeRes := exec.RunCompiled(p, prog, par.Workers(s.workers))
	return seqRes.Elapsed, pipeRes.Elapsed, float64(seqRes.Elapsed) / float64(pipeRes.Elapsed), nil
}

// TracePipelined runs the pipelined program with tracing and returns
// the execution analysis plus an ASCII Gantt chart of statement
// activity (the Figure 2/5 picture).
func (s *Session) TracePipelined(p *Program, ganttWidth int) (trace.Analysis, string, error) {
	prog, err := s.compile(p)
	if err != nil {
		return trace.Analysis{}, "", err
	}
	c := trace.NewCollector()
	p.Reset()
	prog.RunTraced(par.Workers(s.workers), c.Hook())
	a := trace.Analyze(c.Spans())
	names := map[int]string{}
	for _, st := range p.SCoP.Stmts {
		names[st.Index] = st.Name
	}
	return a, trace.Gantt(a.Spans, names, ganttWidth), nil
}

// TraceSVG runs the pipelined program with tracing and writes an SVG
// Gantt timeline of statement activity (the graphical Figure 2).
func (s *Session) TraceSVG(w io.Writer, p *Program) error {
	prog, err := s.compile(p)
	if err != nil {
		return err
	}
	c := trace.NewCollector()
	p.Reset()
	prog.RunTraced(par.Workers(s.workers), c.Hook())
	names := map[int]string{}
	for _, st := range p.SCoP.Stmts {
		names[st.Index] = st.Name
	}
	return trace.WriteSVG(w, c.Spans(), trace.SVGOptions{Names: names})
}

// SimConfig configures Session.Simulate, consolidating the Sim* family
// behind one call.
type SimConfig struct {
	// Mode selects what to simulate: ModePipelined (the default) or
	// ModeParLoop (the Polly-style baseline).
	Mode Mode
	// Procs lists the processor counts to schedule at; all counts share
	// one set of measured task costs, so the points are comparable.
	// Empty means one point at the session's worker count; an entry
	// below 1 is an error.
	Procs []int
	// Overhead models per-task scheduling cost in virtual time.
	Overhead time.Duration
	// Potential ignores Procs and schedules with unbounded processors —
	// the critical-path bound (Eq. 5 is its per-nest limit).
	Potential bool
}

// Simulate measures p's task costs during one sequential replay and
// returns the simulated speed-up at each requested processor count
// (virtual-time mode — deterministic, works on single-core hosts; see
// internal/simsched). The result slice aligns with cfg.Procs (one
// element when Procs is empty or cfg.Potential is set).
func (s *Session) Simulate(p *Program, cfg SimConfig) ([]float64, error) {
	if s.closed.Load() {
		return nil, ErrSessionClosed
	}
	if err := s.ctx.Err(); err != nil {
		return nil, wrapCtxErr(err)
	}
	for _, pr := range cfg.Procs {
		if pr < 1 {
			return nil, fmt.Errorf("polypipe: simulated processor count %d, want >= 1", pr)
		}
	}
	procs := cfg.Procs
	if len(procs) == 0 {
		procs = []int{par.Workers(s.workers)}
	}
	if cfg.Mode == ModeParLoop {
		if cfg.Potential {
			return nil, fmt.Errorf("polypipe: Potential applies to the pipelined task graph, not the per-loop baseline")
		}
		out := make([]float64, len(procs))
		for i, pr := range procs {
			_, sch := simsched.SimulateParLoop(p, pr, cfg.Overhead)
			out[i] = sch.Speedup()
		}
		return out, nil
	}
	prog, err := s.compile(p)
	if err != nil {
		return nil, err
	}
	tasks, _ := simsched.MeasureCompiled(p, prog, cfg.Overhead)
	if cfg.Potential {
		n := prog.NumTasks()
		if n < 1 {
			n = 1
		}
		return []float64{simsched.List(tasks, n).Speedup()}, nil
	}
	out := make([]float64, len(procs))
	for i, pr := range procs {
		out[i] = simsched.List(tasks, pr).Speedup()
	}
	return out, nil
}
