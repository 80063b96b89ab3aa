package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/benchmark/internal/gen"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Times are offsets from the start of the pass.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for an operation's root span
	Op     int           `json:"op"`     // spans of one operation share it
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. It is used from the
// pass's one goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	// values collects span durations in ms by name and by group (an
	// exec member, or "" for per-request layers), so a metric can be a
	// reading per group summed over groups.
	values map[string]map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), values: map[string]map[string][]float64{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// end closes span id and files its duration under group.
func (t *tracer) end(id int, group string) {
	s := &t.spans[id]
	s.End = time.Since(t.t0)
	t.add(s.Name, group, gen.Ms(s.End-s.Start))
}

// add files a value that is not a span (a count, a derived time).
func (t *tracer) add(name, group string, v float64) {
	if t.values[name] == nil {
		t.values[name] = map[string][]float64{}
	}
	t.values[name][group] = append(t.values[name][group], v)
}

// time runs fn inside a span.
func (t *tracer) time(name, group string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id, group)
}

// sum is the metric of a layer: the uncontended reading of its values
// per group, summed over groups, as the driver takes compile_ms, seq_ms
// and run_ms.
func (t *tracer) sum(name string) float64 {
	total := 0.0
	for _, vals := range t.values[name] {
		total += gen.Uncontended(vals)
	}
	return total
}

// all returns every value filed under name.
func (t *tracer) all(name string) []float64 {
	var out []float64
	for _, vals := range t.values[name] {
		out = append(out, vals...)
	}
	return out
}

// selfTimes is each span's duration minus the part of it its child
// spans cover, totalled by span name, in ms. Children of one parent run
// one after another here, so covered time is the sum of their
// durations.
func (t *tracer) selfTimes() map[string]float64 {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += gen.Ms(s.End - s.Start - covered[s.ID])
	}
	return self
}

// write dumps the spans and the self-time summary once, at exit.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		SelfMs map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{t.selfTimes(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
