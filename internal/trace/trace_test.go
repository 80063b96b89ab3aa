package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/scop"
)

// synthetic spans: S0 runs [0,10) and [10,20); S1 runs [5,15) and
// [20,30) (milliseconds after base).
func syntheticSpans() []Span {
	base := time.Unix(1000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	return []Span{
		{Label: "S0[0]", Serial: 0, Start: at(0), End: at(10)},
		{Label: "S0[1]", Serial: 0, Start: at(10), End: at(20)},
		{Label: "S1[0]", Serial: 1, Start: at(5), End: at(15)},
		{Label: "S1[1]", Serial: 1, Start: at(20), End: at(30)},
	}
}

func TestAnalyzeSynthetic(t *testing.T) {
	a := Analyze(syntheticSpans())
	if a.Makespan != 30*time.Millisecond {
		t.Errorf("Makespan = %v", a.Makespan)
	}
	if a.Busy != 40*time.Millisecond {
		t.Errorf("Busy = %v", a.Busy)
	}
	if len(a.PerStmt) != 2 || a.PerStmt[0].Tasks != 2 || a.PerStmt[1].Busy != 20*time.Millisecond {
		t.Errorf("PerStmt = %+v", a.PerStmt)
	}
	if a.Overlap < 1.33 || a.Overlap > 1.34 {
		t.Errorf("Overlap = %f", a.Overlap)
	}
	// Both statements are 20ms busy; MaxStmt picks one of them.
	if a.MaxStmt.Busy != 20*time.Millisecond {
		t.Errorf("MaxStmt = %+v", a.MaxStmt)
	}
	if err := a.CheckBounds(40*time.Millisecond, 0); err != nil {
		t.Errorf("bounds: %v", err)
	}
	// A bogus short sequential time must violate the upper bound.
	if err := a.CheckBounds(10*time.Millisecond, 0); err == nil {
		t.Error("expected upper-bound violation")
	}
}

func TestUtilizationAndPerWorker(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{Label: "a", Serial: 0, Worker: 0, Start: at(0), End: at(10)},
		{Label: "b", Serial: 0, Worker: 1, Start: at(0), End: at(10)},
	}
	a := Analyze(spans)
	if a.PerWorker[0] != 10*time.Millisecond || a.PerWorker[1] != 10*time.Millisecond {
		t.Fatalf("PerWorker = %v", a.PerWorker)
	}
	// 20ms busy over 10ms makespan on 2 workers = full utilization.
	if got := a.Utilization(2); got != 1.0 {
		t.Fatalf("Utilization(2) = %f, want 1.0", got)
	}
	if got := a.Utilization(4); got != 0.5 {
		t.Fatalf("Utilization(4) = %f, want 0.5", got)
	}
	if a.Utilization(0) != 0 || Analyze(nil).Utilization(4) != 0 {
		t.Fatal("degenerate utilization not zero")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil)
	if a.Makespan != 0 || a.Busy != 0 || len(a.PerStmt) != 0 {
		t.Fatal("empty analysis not zero")
	}
}

func TestGanttSynthetic(t *testing.T) {
	out := Gantt(syntheticSpans(), map[int]string{0: "S", 1: "R"}, 30)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("gantt rows = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "S") || !strings.HasPrefix(lines[1], "R") {
		t.Fatalf("row labels wrong:\n%s", out)
	}
	// S is busy for the first 20 of 30ms: first two-thirds filled.
	sRow := lines[0][strings.Index(lines[0], "|")+1:]
	if !strings.HasPrefix(sRow, "████") {
		t.Errorf("S row should start busy: %q", sRow)
	}
	if !strings.Contains(sRow, "░") {
		t.Errorf("S row should have idle tail: %q", sRow)
	}
	// R starts idle.
	rRow := lines[1][strings.Index(lines[1], "|")+1:]
	if !strings.HasPrefix(rRow, "░") {
		t.Errorf("R row should start idle: %q", rRow)
	}
}

func TestGanttEmpty(t *testing.T) {
	if Gantt(nil, nil, 20) != "" || Gantt(syntheticSpans(), nil, 0) != "" {
		t.Fatal("expected empty gantt")
	}
}

func TestCollectorCountsUnmatchedFinish(t *testing.T) {
	c := NewCollector()
	reg := obs.NewRegistry()
	c.SetRegistry(reg)
	hook := c.Hook()
	hook(runtime.Event{Kind: runtime.EventEnd, TaskID: 7, When: time.Now()})
	if len(c.Spans()) != 0 {
		t.Fatal("unmatched finish produced a span")
	}
	if c.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", c.Dropped())
	}
	if got := reg.Snapshot().Counter("trace.events_dropped"); got != 1 {
		t.Fatalf("trace.events_dropped = %d, want 1", got)
	}
	if a := c.Analyze(); a.DroppedEvents != 1 {
		t.Fatalf("Analysis.DroppedEvents = %d, want 1", a.DroppedEvents)
	}
}

func TestCollectorStallFromReadyEvents(t *testing.T) {
	c := NewCollector()
	hook := c.Hook()
	base := time.Unix(2000, 0)
	hook(runtime.Event{Kind: runtime.EventSubmit, TaskID: 1, Label: "a", When: base})
	hook(runtime.Event{Kind: runtime.EventReady, TaskID: 1, Label: "a", When: base.Add(time.Millisecond)})
	hook(runtime.Event{Kind: runtime.EventStart, TaskID: 1, Label: "a", Worker: 0, When: base.Add(3 * time.Millisecond)})
	hook(runtime.Event{Kind: runtime.EventEnd, TaskID: 1, Label: "a", Worker: 0, When: base.Add(7 * time.Millisecond)})
	spans := c.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	if got := spans[0].Stall(); got != 2*time.Millisecond {
		t.Errorf("Stall = %v, want 2ms", got)
	}
	if got := spans[0].Duration(); got != 4*time.Millisecond {
		t.Errorf("Duration = %v, want 4ms", got)
	}
	a := Analyze(spans)
	if a.TotalStall != 2*time.Millisecond {
		t.Errorf("TotalStall = %v", a.TotalStall)
	}
}

// buildSleepChain constructs a 1-D chain program whose bodies sleep,
// giving the pipeline real overlap to measure.
func buildSleepChain(nests, rows int, d time.Duration) *kernels.Program {
	grids := make([]*kernels.Grid, nests+1)
	for i := range grids {
		grids[i] = kernels.NewGrid(rows)
	}
	b := scop.NewBuilder("sleepchain")
	for k := 0; k <= nests; k++ {
		b.Array(arr(k), 1)
	}
	for k := 1; k <= nests; k++ {
		src, dst := grids[k-1], grids[k]
		name := "S" + string(rune('0'+k))
		b.Stmt(name, aff.RectDomain(name, rows)).
			Writes(arr(k), aff.Var(1, 0)).
			Reads(arr(k-1), aff.Var(1, 0)).
			Body(func(iv isl.Vec) {
				time.Sleep(d)
				dst.Set(iv[0], 0, src.At(iv[0], 0)+1)
			})
	}
	sc := b.MustBuild()
	reset := func() {
		for i, g := range grids {
			g.SeedDeterministic(uint64(i))
		}
	}
	reset()
	return &kernels.Program{Name: "sleepchain", SCoP: sc, Reset: reset,
		Hash: func() uint64 { return grids[nests].Hash() }}
}

func arr(k int) string { return "G" + string(rune('0'+k)) }

// TestPipelineOverlapAndBounds measures a real pipelined execution:
// statements must overlap (Figure 2's behaviour) and satisfy the Eq. 5
// bounds against the sequential time.
func TestPipelineOverlapAndBounds(t *testing.T) {
	p := buildSleepChain(3, 12, 2*time.Millisecond)
	info, err := core.Detect(p.SCoP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Compile(info)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential reference time: every iteration sleeps.
	sequential := time.Duration(3*12) * 2 * time.Millisecond

	c := NewCollector()
	p.Reset()
	prog.RunTraced(4, c.Hook())
	a := Analyze(c.Spans())

	if len(a.Spans) != prog.NumTasks() {
		t.Fatalf("spans = %d, want %d", len(a.Spans), prog.NumTasks())
	}
	// Eq. 5 with generous slack for scheduler jitter.
	if err := a.CheckBounds(sequential*2, 20*time.Millisecond); err != nil {
		t.Error(err)
	}
	// The three nests must actually overlap: average concurrency
	// comfortably above 1.
	if a.Overlap < 1.2 {
		t.Errorf("Overlap = %.2f, expected pipelined nests to overlap", a.Overlap)
	}
	// Gantt renders one row per statement.
	g := Gantt(a.Spans, map[int]string{0: "S1", 1: "S2", 2: "S3"}, 40)
	if rows := strings.Count(g, "\n"); rows != 3 {
		t.Errorf("gantt rows = %d:\n%s", rows, g)
	}
}

// TestCollectorConcurrentReaders hammers the collector from hook
// writers and Analyze/Spans/Dropped readers at once — the serving
// scenario where stats are scraped while a traced run is in flight.
// Run under `make race` it proves the collector needs no external
// barrier; the assertions pin the consistency contract: an Analyze
// snapshot never tears (every observed span pairs a start before its
// end, and drops never undercount relative to an earlier snapshot).
func TestCollectorConcurrentReaders(t *testing.T) {
	c := NewCollector()
	hook := c.Hook()
	base := time.Now()

	const writers, events = 4, 300
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < events; i++ {
				id := w*events + i
				when := base.Add(time.Duration(id) * time.Microsecond)
				if i%10 == 9 {
					// Orphan end: must count as a drop, never a span.
					hook(runtime.Event{Kind: runtime.EventEnd, TaskID: -id - 1, Worker: w, When: when})
					continue
				}
				hook(runtime.Event{Kind: runtime.EventReady, TaskID: id, Worker: -1, When: when})
				hook(runtime.Event{Kind: runtime.EventStart, TaskID: id, Serial: w, Worker: w, When: when})
				hook(runtime.Event{Kind: runtime.EventEnd, TaskID: id, Worker: w, When: when.Add(time.Microsecond)})
			}
		}(w)
	}

	readWG.Add(1)
	go func() {
		defer readWG.Done()
		prevDropped := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			a := c.Analyze()
			for _, s := range a.Spans {
				if s.End.Before(s.Start) {
					t.Error("span with end before start")
					return
				}
			}
			if a.DroppedEvents < prevDropped {
				t.Errorf("drop count went backwards: %d -> %d", prevDropped, a.DroppedEvents)
				return
			}
			prevDropped = a.DroppedEvents
			_ = c.Spans()
			_ = c.Dropped()
		}
	}()

	writeWG.Wait()
	close(stop)
	readWG.Wait()

	if got := c.Dropped(); got != writers*events/10 {
		t.Fatalf("dropped = %d, want %d", got, writers*events/10)
	}
	if got := len(c.Spans()); got != writers*events*9/10 {
		t.Fatalf("spans = %d, want %d", got, writers*events*9/10)
	}
}

// TestSetRegistryBackfillsDrops: attaching a registry after drops were
// recorded backfills them, so the mirrored counter always equals
// Dropped() no matter the installation order.
func TestSetRegistryBackfillsDrops(t *testing.T) {
	c := NewCollector()
	hook := c.Hook()
	now := time.Now()
	for i := 0; i < 3; i++ {
		hook(runtime.Event{Kind: runtime.EventEnd, TaskID: i, When: now})
	}
	reg := obs.NewRegistry()
	c.SetRegistry(reg)
	if got := reg.Snapshot().Counters["trace.events_dropped"]; got != 3 {
		t.Fatalf("backfilled counter = %d, want 3", got)
	}
	// Post-installation drops keep the mirror in sync.
	hook(runtime.Event{Kind: runtime.EventEnd, TaskID: 99, When: now})
	if got := reg.Snapshot().Counters["trace.events_dropped"]; got != 4 {
		t.Fatalf("counter after new drop = %d, want 4", got)
	}
	if c.Dropped() != 4 {
		t.Fatalf("Dropped() = %d, want 4", c.Dropped())
	}
}
