// Package trace records and analyzes pipelined executions: per-task
// spans, per-statement busy times, overlap between loop nests (the
// behaviour Figure 2 illustrates), the Eq. 5/6 performance bounds
// (time(L_max) ≤ time(pipeline) ≤ time(sequential)), and an ASCII
// Gantt rendering of statement activity over time (the Figure 5
// picture).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// Span is one completed task execution.
type Span struct {
	Task   int // runtime task id (submission order)
	Label  string
	Serial int       // statement index (the task's serialization key)
	Worker int       // worker that executed the task
	Ready  time.Time // when dependencies were satisfied; zero if unobserved
	Start  time.Time
	End    time.Time
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Stall returns how long the task sat ready before a worker picked it
// up, or 0 when the ready transition was not observed.
func (s Span) Stall() time.Duration {
	if s.Ready.IsZero() || s.Ready.After(s.Start) {
		return 0
	}
	return s.Start.Sub(s.Ready)
}

// Collector accumulates runtime lifecycle events into spans. Pass Hook
// as runtime.ExecOptions.Trace.
type Collector struct {
	mu             sync.Mutex
	open           map[int]runtime.Event
	ready          map[int]time.Time
	spans          []Span
	dropped        int
	droppedCounter *obs.Counter
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		open:  make(map[int]runtime.Event),
		ready: make(map[int]time.Time),
	}
}

// SetRegistry mirrors the collector's drop count into the registry's
// "trace.events_dropped" counter, so hook-installation races surface in
// metrics instead of silently losing spans. Drops recorded before the
// registry was attached are backfilled, so the counter always equals
// Dropped() regardless of installation order.
func (c *Collector) SetRegistry(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.droppedCounter = reg.Counter("trace.events_dropped")
	if c.dropped > 0 {
		c.droppedCounter.Add(int64(c.dropped))
	}
}

// Reset discards the collected spans and any in-flight start/ready
// state so the collector can observe a fresh run (the introspection
// server's /debug/trace serves the most recent run, not an unbounded
// accumulation). The drop count — and its registry mirror — survive:
// they measure lifetime loss, not one run.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = c.spans[:0]
	clear(c.open)
	clear(c.ready)
}

// Hook returns the tracing callback for runtime.ExecOptions.Trace.
func (c *Collector) Hook() func(runtime.Event) {
	return func(e runtime.Event) {
		c.mu.Lock()
		defer c.mu.Unlock()
		switch e.Kind {
		case runtime.EventReady:
			c.ready[e.TaskID] = e.When
		case runtime.EventStart:
			c.open[e.TaskID] = e
		case runtime.EventEnd:
			s, ok := c.open[e.TaskID]
			if !ok {
				// An end with no matching start: the hook was installed
				// after the task began (or events were lost). Count it —
				// invisible drops hide installation races.
				c.dropped++
				if c.droppedCounter != nil {
					c.droppedCounter.Inc()
				}
				return
			}
			delete(c.open, e.TaskID)
			ready := c.ready[e.TaskID]
			delete(c.ready, e.TaskID)
			c.spans = append(c.spans, Span{
				Task:   e.TaskID,
				Label:  s.Label,
				Serial: s.Serial,
				Worker: s.Worker,
				Ready:  ready,
				Start:  s.When,
				End:    e.When,
			})
		}
	}
}

// Spans returns the completed spans sorted by start time.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, len(c.spans))
	copy(out, c.spans)
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Dropped returns how many end events arrived with no matching start.
func (c *Collector) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Analyze summarizes the collected spans, carrying the collector's
// drop count into the result. The spans and the drop count are read
// under one lock acquisition, so the analysis is a consistent snapshot
// even while hooks are still firing — separate Spans()+Dropped() calls
// could tear (a drop recorded between them would be counted against
// the earlier span set).
func (c *Collector) Analyze() Analysis {
	c.mu.Lock()
	spans := make([]Span, len(c.spans))
	copy(spans, c.spans)
	dropped := c.dropped
	c.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	a := Analyze(spans)
	a.DroppedEvents = dropped
	return a
}

// StmtStat aggregates the spans of one statement (one loop nest).
type StmtStat struct {
	Serial int
	Tasks  int
	Busy   time.Duration // Σ task durations; nests are serialized, so
	// this approximates the nest's standalone running time
	First time.Time
	Last  time.Time
}

// Analysis summarizes a pipelined execution.
type Analysis struct {
	Spans     []Span
	Makespan  time.Duration // first start to last end: time(pipeline)
	Busy      time.Duration // Σ all task durations: ≈ time(sequential)
	MaxStmt   StmtStat      // the L_max nest of Eq. 5/6
	PerStmt   []StmtStat    // by statement index
	Overlap   float64       // Busy / Makespan: average concurrency
	StartTime time.Duration // Eq. 6: start of program to start of L_max
	FinishGap time.Duration // Eq. 6: end of L_max to end of program
	// TotalStall is Σ per-task ready→start gaps: time tasks spent
	// runnable but waiting for a free worker.
	TotalStall time.Duration
	// DroppedEvents counts end events with no matching start (set by
	// Collector.Analyze; 0 when analyzing bare spans).
	DroppedEvents int
	// PerWorker maps worker index to its total busy time; the spread
	// shows load balance across the pool.
	PerWorker map[int]time.Duration
}

// WorkerUtilization returns each worker's busy time divided by the
// makespan — the fraction of the execution it spent running tasks.
func (a Analysis) WorkerUtilization() map[int]float64 {
	out := map[int]float64{}
	if a.Makespan <= 0 {
		return out
	}
	for w, busy := range a.PerWorker {
		out[w] = float64(busy) / float64(a.Makespan)
	}
	return out
}

// Utilization returns Busy / (Makespan × workers): the fraction of the
// pool's capacity the execution used.
func (a Analysis) Utilization(workers int) float64 {
	if a.Makespan <= 0 || workers <= 0 {
		return 0
	}
	return float64(a.Busy) / (float64(a.Makespan) * float64(workers))
}

// Analyze computes the summary of a set of spans.
func Analyze(spans []Span) Analysis {
	a := Analysis{Spans: spans}
	if len(spans) == 0 {
		return a
	}
	byStmt := map[int]*StmtStat{}
	a.PerWorker = map[int]time.Duration{}
	var first, last time.Time
	for _, s := range spans {
		a.PerWorker[s.Worker] += s.Duration()
		a.TotalStall += s.Stall()
		if first.IsZero() || s.Start.Before(first) {
			first = s.Start
		}
		if s.End.After(last) {
			last = s.End
		}
		a.Busy += s.Duration()
		st, ok := byStmt[s.Serial]
		if !ok {
			st = &StmtStat{Serial: s.Serial, First: s.Start, Last: s.End}
			byStmt[s.Serial] = st
		}
		st.Tasks++
		st.Busy += s.Duration()
		if s.Start.Before(st.First) {
			st.First = s.Start
		}
		if s.End.After(st.Last) {
			st.Last = s.End
		}
	}
	a.Makespan = last.Sub(first)
	keys := make([]int, 0, len(byStmt))
	for k := range byStmt {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		a.PerStmt = append(a.PerStmt, *byStmt[k])
		if byStmt[k].Busy > a.MaxStmt.Busy {
			a.MaxStmt = *byStmt[k]
		}
	}
	if a.Makespan > 0 {
		a.Overlap = float64(a.Busy) / float64(a.Makespan)
	}
	a.StartTime = a.MaxStmt.First.Sub(first)
	a.FinishGap = last.Sub(a.MaxStmt.Last)
	return a
}

// CheckBounds verifies the Eq. 5 inequality chain on a measured
// execution against a measured sequential time:
//
//	time(L_max) ≤ time(pipeline) ≤ time(sequential)
//
// slack absorbs scheduler jitter on both ends. It returns nil when the
// bounds hold.
func (a Analysis) CheckBounds(sequential time.Duration, slack time.Duration) error {
	if a.MaxStmt.Busy > a.Makespan+slack {
		return fmt.Errorf("trace: time(L_max)=%v exceeds time(pipeline)=%v beyond slack %v",
			a.MaxStmt.Busy, a.Makespan, slack)
	}
	if a.Makespan > sequential+slack {
		return fmt.Errorf("trace: time(pipeline)=%v exceeds time(sequential)=%v beyond slack %v",
			a.Makespan, sequential, slack)
	}
	return nil
}

// Gantt renders per-statement activity over time as ASCII art, one row
// per statement index, width columns wide:
//
//	S0 |██████████░░░░░░░░|
//	S1 |░░░███████████████|
//
// A cell is filled when any task of the statement was running in that
// time bucket.
func Gantt(spans []Span, names map[int]string, width int) string {
	if len(spans) == 0 || width <= 0 {
		return ""
	}
	var first, last time.Time
	for _, s := range spans {
		if first.IsZero() || s.Start.Before(first) {
			first = s.Start
		}
		if s.End.After(last) {
			last = s.End
		}
	}
	total := last.Sub(first)
	if total <= 0 {
		total = time.Nanosecond
	}
	rows := map[int][]bool{}
	for _, s := range spans {
		row, ok := rows[s.Serial]
		if !ok {
			row = make([]bool, width)
			rows[s.Serial] = row
		}
		lo := int(float64(s.Start.Sub(first)) / float64(total) * float64(width))
		hi := int(float64(s.End.Sub(first)) / float64(total) * float64(width))
		if hi >= width {
			hi = width - 1
		}
		for c := lo; c <= hi; c++ {
			row[c] = true
		}
	}
	keys := make([]int, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var b strings.Builder
	for _, k := range keys {
		name := names[k]
		if name == "" {
			name = fmt.Sprintf("S%d", k)
		}
		fmt.Fprintf(&b, "%-8s |", name)
		for _, on := range rows[k] {
			if on {
				b.WriteRune('█')
			} else {
				b.WriteRune('░')
			}
		}
		b.WriteString("|\n")
	}
	return b.String()
}
