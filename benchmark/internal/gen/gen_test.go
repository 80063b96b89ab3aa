package gen

import (
	"bytes"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/scop"
)

func sampleP95(samples []Sample, of func(Sample) time.Duration) float64 {
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = Ms(of(s))
	}
	return Percentile(vals, 95)
}

// One 50 ms stall on one connection delays every request scheduled
// behind it. Timed from the intended send time the delay shows in p95;
// timed from the actual send it hides, because the generator sent those
// requests late — the coordinated omission the open loop must not
// commit.
func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if n.Add(1) == 20 {
			time.Sleep(50 * time.Millisecond)
		}
	}))
	defer srv.Close()
	g := NewGenerator(srv.URL, [][]byte{[]byte("{}")}, 1)
	defer g.Close()

	samples := g.Open(make([]int, 200), 1000) // one request per ms; the stall covers ~50 of them
	for _, s := range samples {
		if s.Err != nil || s.Status != http.StatusOK {
			t.Fatalf("request failed: status %d, err %v", s.Status, s.Err)
		}
	}
	intended, service := sampleP95(samples, Sample.Latency), sampleP95(samples, Sample.Service)
	if intended < 25 {
		t.Errorf("p95 from intended send time = %.1f ms; the 50 ms stall should put it above 25 ms", intended)
	}
	if service > 10 {
		t.Errorf("p95 from actual send time = %.1f ms; only the stalled request itself should be slow", service)
	}
}

func TestGeneratorKeepsToItsConnections(t *testing.T) {
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write(bytes.Repeat([]byte("x"), 4096))
	}))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	conns := runtime.GOMAXPROCS(0)
	g := NewGenerator(srv.URL, [][]byte{[]byte("{}")}, conns)
	defer g.Close()

	g.Open(make([]int, 300), 2000)
	samples := g.Closed(make([]int, 300))
	if got := opened.Load(); got > int64(conns) {
		t.Errorf("generator opened %d connections over 600 requests, want at most GOMAXPROCS = %d", got, conns)
	}
	if rate := Throughput(samples, func(Sample) bool { return true }); len(samples) != 300 || rate <= 0 {
		t.Errorf("closed loop returned %d samples at %v req/s", len(samples), rate)
	}
	for _, s := range samples {
		if len(s.Body) != 4096 {
			t.Fatalf("response body not read to the end: %d bytes", len(s.Body))
		}
	}
}

func TestColdDocumentsHaveDistinctFingerprints(t *testing.T) {
	cold, err := ScenarioByName("serve_cold")
	if err != nil {
		t.Fatal(err)
	}
	members := cold.DocMembers(1, Scale{Seconds: 20}) // a full-length run's corpus
	if testing.Short() {
		members = members[:100]
	}
	seen := map[scop.Fingerprint]string{}
	for _, m := range members {
		d, err := NewDoc(m)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scop.FromJSON(d.Body)
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := seen[sc.Fingerprint()]; dup {
			t.Fatalf("%s and %s share fingerprint %s", other, m.Name, sc.Fingerprint())
		}
		seen[sc.Fingerprint()] = m.Name
	}
}

func TestSameSeedSameCorpus(t *testing.T) {
	a, err := Docs(Draw(7, 20))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Docs(Draw(7, 40))
	c, _ := Docs(Draw(8, 20))
	same := 0
	for i := range a {
		if !bytes.Equal(a[i].Body, b[i].Body) {
			t.Errorf("document %d differs between two draws of seed 7", i)
		}
		if bytes.Equal(a[i].Body, c[i].Body) {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 drew the same corpus")
	}
}

func TestWorkMatchesBuiltDomains(t *testing.T) {
	drawn := Draw(3, 8)
	for _, m := range drawn {
		if _, weighted := work(m.Spec, m.N); weighted < workLo || weighted > workHi {
			t.Errorf("%s: drawn with work %d outside [%d, %d]", m.Name, weighted, workLo, workHi)
		}
	}
	for _, spec := range kernels.Table9 {
		drawn = append(drawn, Member{Name: spec.Name, Spec: spec, N: 32})
	}
	for _, m := range drawn {
		iterations, _ := work(m.Spec, m.N)
		if got := m.Build().SCoP.TotalIterations(); got != iterations {
			t.Errorf("%s: work() counts %d iterations, the built SCoP has %d", m.Name, iterations, got)
		}
	}
}

func TestOrdersCoverDocumentsEvenly(t *testing.T) {
	flat := func(open, closed [][]int) (all []int) {
		for c := range open {
			all = append(append(all, open[c]...), closed[c]...)
		}
		return all
	}
	sz := Scale{Seconds: 20}
	warm, _ := ScenarioByName("serve_warm")
	open, closed := warm.Orders(1, sz, WarmDocs)
	if cycles, no, nc := warm.Slices(sz); len(open) != cycles || len(closed) != cycles || len(open[0]) != no || len(closed[cycles-1]) != nc {
		t.Fatalf("orders do not have %d cycles of %d open and %d closed requests", cycles, no, nc)
	}
	counts := make([]int, WarmDocs)
	for _, d := range flat(open, closed) {
		counts[d]++
	}
	for d, c := range counts {
		if c < counts[0]-1 || c > counts[0]+1 {
			t.Errorf("document %d requested %d times, document 0 %d times", d, c, counts[0])
		}
	}
	cold, _ := ScenarioByName("serve_cold")
	all := flat(cold.Orders(1, sz, 0))
	for i, d := range all {
		if d != ColdPrime+i {
			t.Fatalf("cold request %d asks for document %d; each document behind the priming ones is requested once", i, d)
		}
	}
	if got := len(cold.DocMembers(1, sz)); got != ColdPrime+len(all) {
		t.Errorf("cold corpus has %d documents for %d priming and %d timed requests", got, ColdPrime, len(all))
	}
}

// A run whose cycles are steady but for a few the host disturbed
// reports the steady figure, for a time and for a rate.
func TestDisturbedCyclesDoNotSetTheReading(t *testing.T) {
	if got := Uncontended([]float64{2, 2.5, 40, 2, 9, 2.5, 2.5, 2.5}); got != 2 {
		t.Errorf("Uncontended = %v, want 2", got)
	}
	if got := UncontendedRate([]float64{100, 99, 12, 100, 60, 99, 98, 99}); got != 100 {
		t.Errorf("UncontendedRate = %v, want 100", got)
	}
	if got := Uncontended([]float64{3, 1, 2, 4, 5}); got != 1.5 {
		t.Errorf("Uncontended of five = %v, want the mean of the lowest two", got)
	}
}

func TestStats(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := Median(xs); got != 5.5 {
		t.Errorf("Median = %v, want 5.5", got)
	}
	if got := Percentile(xs, 95); got != 10 {
		t.Errorf("Percentile(95) = %v, want 10", got)
	}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("Percentile(50) = %v, want 5 (nearest rank)", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, want := Spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
}
