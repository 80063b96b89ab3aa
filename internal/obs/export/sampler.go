package export

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultSampleInterval is the sampling period a Sampler built with
// interval <= 0 gets.
const DefaultSampleInterval = 250 * time.Millisecond

// DefaultSampleCapacity is the ring bound a Sampler built with
// capacity <= 0 gets: at the default interval it retains one minute of
// history.
const DefaultSampleCapacity = 240

// HistogramStats is the per-sample digest of one histogram: the
// cumulative count/sum plus the interpolated p50/p95/p99 estimates
// (HistogramSnapshot.Quantile).
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Sample is one timestamped observation of the registry: cumulative
// counter values plus their deltas against the previous sample (the
// rate numerator), instantaneous gauges, and histogram digests.
type Sample struct {
	When       time.Time                 `json:"when"`
	Counters   map[string]int64          `json:"counters,omitempty"`
	Deltas     map[string]int64          `json:"deltas,omitempty"`
	Gauges     map[string]int64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Series is the JSON shape of a sampler dump.
type Series struct {
	IntervalNS int64    `json:"interval_ns"`
	Capacity   int      `json:"capacity"`
	Evicted    int64    `json:"evicted"`
	Samples    []Sample `json:"samples"`
}

// Sampler periodically snapshots a metrics source into a fixed-capacity
// ring of timestamped samples, so a scraper (or a human at
// /debug/series) can read a recent time series without the registry
// retaining any history itself. All methods are safe for concurrent
// use; the background goroutine runs between Start and Stop.
type Sampler struct {
	src      func() obs.Snapshot
	interval time.Duration

	mu      sync.Mutex
	ring    []Sample
	next    int
	full    bool
	evicted int64
	prev    map[string]int64 // counter values at the previous sample
	stop    chan struct{}
	done    chan struct{}
}

// NewSampler builds a sampler over src (typically Registry.Snapshot of
// a session registry, which already carries the detect/cache/runtime
// families — runtime queue_depth and deps_resolved included). interval <= 0 means DefaultSampleInterval; capacity <= 0
// means DefaultSampleCapacity.
func NewSampler(src func() obs.Snapshot, interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = DefaultSampleCapacity
	}
	return &Sampler{
		src:      src,
		interval: interval,
		ring:     make([]Sample, capacity),
	}
}

// Interval returns the sampling period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Start launches the background sampling goroutine (taking one sample
// immediately, so the series is never empty after Start). It is a
// no-op when the sampler is already running.
func (s *Sampler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.sampleLocked(time.Now())
	go s.loop(s.stop, s.done)
}

// Stop halts the background goroutine and waits for it to exit. It is
// a no-op when the sampler is not running.
func (s *Sampler) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (s *Sampler) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			s.TakeSample(now)
		}
	}
}

// TakeSample records one sample stamped now (zero means time.Now).
// The background loop calls it on every tick; tests and push-style
// callers may call it directly, running or not.
func (s *Sampler) TakeSample(now time.Time) {
	if now.IsZero() {
		now = time.Now()
	}
	s.mu.Lock()
	s.sampleLocked(now)
	s.mu.Unlock()
}

func (s *Sampler) sampleLocked(now time.Time) {
	snap := s.src()
	sm := Sample{When: now}
	if len(snap.Counters) > 0 {
		sm.Counters = snap.Counters
		sm.Deltas = make(map[string]int64, len(snap.Counters))
		for k, v := range snap.Counters {
			sm.Deltas[k] = v - s.prev[k]
		}
	}
	if len(snap.Gauges) > 0 {
		sm.Gauges = snap.Gauges
	}
	if len(snap.Histograms) > 0 {
		sm.Histograms = make(map[string]HistogramStats, len(snap.Histograms))
		for k, h := range snap.Histograms {
			sm.Histograms[k] = HistogramStats{
				Count: h.Count,
				Sum:   h.Sum,
				P50:   h.Quantile(0.50),
				P95:   h.Quantile(0.95),
				P99:   h.Quantile(0.99),
			}
		}
	}
	s.prev = snap.Counters
	if s.full {
		s.evicted++
	}
	s.ring[s.next] = sm
	s.next++
	if s.next == len(s.ring) {
		s.next, s.full = 0, true
	}
}

// Samples returns the retained samples oldest first.
func (s *Sampler) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		out := make([]Sample, s.next)
		copy(out, s.ring[:s.next])
		return out
	}
	out := make([]Sample, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out
}

// Evicted returns how many samples were dropped to stay within
// capacity.
func (s *Sampler) Evicted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// WriteJSON dumps the retained series as one JSON object.
func (s *Sampler) WriteJSON(w io.Writer) error {
	s.mu.Lock()
	capacity, evicted := len(s.ring), s.evicted
	s.mu.Unlock()
	out := Series{
		IntervalNS: s.interval.Nanoseconds(),
		Capacity:   capacity,
		Evicted:    evicted,
		Samples:    s.Samples(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
