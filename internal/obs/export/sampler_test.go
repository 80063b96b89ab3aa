package export_test

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
)

func TestSamplerDeltasAndGauges(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("runtime.deps_resolved")
	g := reg.Gauge("runtime.queue_depth")
	h := reg.Histogram("runtime.task_ns", []int64{10, 100})

	s := export.NewSampler(reg.Snapshot, time.Hour, 8)
	c.Add(5)
	g.Set(2)
	h.Observe(50)
	s.TakeSample(time.Unix(1, 0))
	c.Add(3)
	g.Set(7)
	s.TakeSample(time.Unix(2, 0))

	got := s.Samples()
	if len(got) != 2 {
		t.Fatalf("samples = %d, want 2", len(got))
	}
	if got[0].When.After(got[1].When) {
		t.Fatal("samples not in chronological order")
	}
	if got[0].Counters["runtime.deps_resolved"] != 5 || got[0].Deltas["runtime.deps_resolved"] != 5 {
		t.Errorf("first sample counter/delta = %d/%d, want 5/5",
			got[0].Counters["runtime.deps_resolved"], got[0].Deltas["runtime.deps_resolved"])
	}
	if got[1].Counters["runtime.deps_resolved"] != 8 || got[1].Deltas["runtime.deps_resolved"] != 3 {
		t.Errorf("second sample counter/delta = %d/%d, want 8/3",
			got[1].Counters["runtime.deps_resolved"], got[1].Deltas["runtime.deps_resolved"])
	}
	if got[0].Gauges["runtime.queue_depth"] != 2 || got[1].Gauges["runtime.queue_depth"] != 7 {
		t.Error("gauges not instantaneous per sample")
	}
	hs := got[1].Histograms["runtime.task_ns"]
	if hs.Count != 1 || hs.Sum != 50 {
		t.Errorf("histogram digest = %+v", hs)
	}
	if hs.P50 <= 10 || hs.P50 > 100 {
		t.Errorf("p50 = %v, want within the (10,100] bucket", hs.P50)
	}
}

func TestSamplerRingEviction(t *testing.T) {
	reg := obs.NewRegistry()
	s := export.NewSampler(reg.Snapshot, time.Hour, 3)
	for i := 1; i <= 5; i++ {
		s.TakeSample(time.Unix(int64(i), 0))
	}
	got := s.Samples()
	if len(got) != 3 {
		t.Fatalf("samples = %d, want 3", len(got))
	}
	if got[0].When.Unix() != 3 || got[2].When.Unix() != 5 {
		t.Errorf("retained window = [%d, %d], want [3, 5]", got[0].When.Unix(), got[2].When.Unix())
	}
	if s.Evicted() != 2 {
		t.Errorf("evicted = %d, want 2", s.Evicted())
	}
}

func TestSamplerBackgroundLoop(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("x")
	s := export.NewSampler(reg.Snapshot, 5*time.Millisecond, 64)
	s.Start()
	s.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for len(s.Samples()) < 3 && time.Now().Before(deadline) {
		c.Inc()
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent
	n := len(s.Samples())
	if n < 3 {
		t.Fatalf("background loop took %d samples, want >= 3", n)
	}
	time.Sleep(15 * time.Millisecond)
	if got := len(s.Samples()); got != n {
		t.Errorf("sampler kept sampling after Stop (%d -> %d)", n, got)
	}
}

func TestSamplerWriteJSON(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("runtime.executed").Add(9)
	s := export.NewSampler(reg.Snapshot, time.Second, 4)
	s.TakeSample(time.Unix(10, 0))
	s.TakeSample(time.Unix(11, 0))

	var b strings.Builder
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var got export.Series
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("series JSON does not parse: %v\n%s", err, b.String())
	}
	if got.IntervalNS != time.Second.Nanoseconds() || got.Capacity != 4 {
		t.Errorf("header = %+v", got)
	}
	if len(got.Samples) != 2 {
		t.Fatalf("samples in JSON = %d, want 2", len(got.Samples))
	}
	if got.Samples[0].When.Equal(got.Samples[1].When) {
		t.Error("want distinct timestamps")
	}
	if got.Samples[1].Counters["runtime.executed"] != 9 {
		t.Errorf("counter in JSON = %d, want 9", got.Samples[1].Counters["runtime.executed"])
	}
}

func TestSamplerConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("x")
	s := export.NewSampler(reg.Snapshot, time.Millisecond, 16)
	s.Start()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Inc()
				s.TakeSample(time.Time{})
				_ = s.Samples()
				var b strings.Builder
				_ = s.WriteJSON(&b)
			}
		}()
	}
	wg.Wait()
	s.Stop()
}

// TestScrapeStaysOffHotPath asserts the property the live-telemetry
// endpoints rely on: the per-task instruments the scheduler updates in
// steady state (counter add, gauge move, histogram observe) allocate
// nothing, and running a scrape (snapshot + exposition) leaves that
// unchanged — scrape cost lands entirely on the scraper's goroutine.
func TestScrapeStaysOffHotPath(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("runtime.executed")
	g := reg.Gauge("runtime.queue_depth")
	h := reg.Histogram("runtime.task_ns", nil)
	hot := func() {
		c.Add(1)
		g.Add(1)
		g.Max(3)
		h.Observe(5_000)
	}
	if avg := testing.AllocsPerRun(500, hot); avg != 0 {
		t.Fatalf("hot-path instruments allocate %v per op before scraping", avg)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := export.WritePrometheus(&b, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(500, hot); avg != 0 {
		t.Fatalf("hot-path instruments allocate %v per op after scraping", avg)
	}
}
