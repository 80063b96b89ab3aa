// Package obs is the dependency-free observability substrate: a
// metrics registry (counters, gauges, fixed-bucket histograms), an
// ordered phase timer for compile-side attribution, and a bounded
// structured-event sink. Everything is safe for concurrent use (and
// exercised under -race); the hot-path instruments are single atomic
// operations so instrumented executions stay within a few percent of
// uninstrumented ones.
//
// Metric names are flat dotted strings ("runtime.queue_depth"); the
// registry shards its name tables by hash so lookups from many worker
// goroutines do not serialize on one mutex. See docs/OBSERVABILITY.md
// for the catalogue of names the pipeline emits.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta and returns the new value.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Max raises the gauge to v if v is larger (peak tracking).
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bounds are
// inclusive upper bounds in ascending order; an implicit +Inf bucket
// catches the rest. Observations are single atomic adds.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Int64
}

// DurationBuckets is the default nanosecond bucket ladder for
// latency-style histograms: 1µs to ~1s in powers of four.
var DurationBuckets = []int64{
	1_000, 4_000, 16_000, 64_000, 256_000,
	1_024_000, 4_096_000, 16_384_000, 65_536_000, 262_144_000, 1_048_576_000,
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the average observed value, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Bucket is one histogram bucket in a snapshot.
type Bucket struct {
	UpperBound int64 // inclusive; the last bucket has UpperBound < 0 meaning +Inf
	Count      int64
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Buckets []Bucket
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// distribution by linear interpolation inside the bucket holding the
// target rank, assuming observations spread uniformly within each
// bucket — the same estimator Prometheus's histogram_quantile uses.
// The first bucket interpolates from a lower edge of 0 (all recorded
// values are durations/sizes, never negative). Ranks landing in the
// +Inf overflow bucket clamp to the highest finite bound: there is no
// upper edge to interpolate toward, so the estimate is a lower bound
// on the true quantile there. An empty histogram reports 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum, lower float64
	for _, b := range s.Buckets {
		if b.UpperBound < 0 {
			// Overflow bucket: clamp to the last finite bound (0 when
			// the histogram has no finite buckets at all).
			return lower
		}
		upper := float64(b.UpperBound)
		next := cum + float64(b.Count)
		if b.Count > 0 && next >= rank {
			return lower + (rank-cum)/float64(b.Count)*(upper-lower)
		}
		cum = next
		lower = upper
	}
	return lower
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.counts {
		ub := int64(-1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, Count: h.counts[i].Load()})
	}
	return s
}

const numShards = 16

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. Lookups return the same instrument for the same name,
// creating it on first use, so callers may either cache the pointer
// (hot paths) or look up by name each time (setup code).
type Registry struct {
	shards [numShards]shard
}

type shard struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].counters = map[string]*Counter{}
		r.shards[i].gauges = map[string]*Gauge{}
		r.shards[i].histograms = map[string]*Histogram{}
	}
	return r
}

// fnv-1a, inlined to keep the package dependency-free of hash/fnv's
// allocation-per-call Write path.
func shardOf(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h % numShards)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	s := &r.shards[shardOf(name)]
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	s := &r.shards[shardOf(name)]
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls ignore bounds; nil bounds
// default to DurationBuckets).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	s := &r.shards[shardOf(name)]
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.histograms[name]
	if !ok {
		if bounds == nil {
			bounds = DurationBuckets
		}
		h = newHistogram(bounds)
		s.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Counter returns the snapshotted counter value, 0 when absent.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the snapshotted gauge value, 0 when absent.
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Names returns all metric names in the snapshot, sorted.
func (s Snapshot) Names() []string {
	var out []string
	for k := range s.Counters {
		out = append(out, k)
	}
	for k := range s.Gauges {
		out = append(out, k)
	}
	for k := range s.Histograms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot copies every metric's current value. Concurrent updates
// during the copy land in either the snapshot or the next one.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for k, c := range s.counters {
			out.Counters[k] = c.Value()
		}
		for k, g := range s.gauges {
			out.Gauges[k] = g.Value()
		}
		for k, h := range s.histograms {
			out.Histograms[k] = h.snapshot()
		}
		s.mu.Unlock()
	}
	return out
}
