package gen

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Sample is one request as the generator saw it. Times are offsets
// from the start of the phase.
type Sample struct {
	Doc    int           // index into the generator's bodies
	Due    time.Duration // when the schedule wanted it sent (= Sent in a closed loop)
	Sent   time.Duration // when it was sent
	Done   time.Duration // when the response body had been read in full
	Status int           // 0 when the request failed before a status arrived
	Body   []byte
	Err    error
}

// Latency is the time a user on the schedule waited: from the intended
// send time, so a stall is charged to every request it delayed, not
// only to the one in flight (no coordinated omission).
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Service is the time from the actual send to the response.
func (s Sample) Service() time.Duration { return s.Done - s.Sent }

// Late is how far behind its schedule the generator sent the request.
func (s Sample) Late() time.Duration { return s.Sent - s.Due }

// Generator posts documents to one URL over at most Conns keep-alive
// connections, one goroutine per connection; every response body is
// read to the end so the connection is reused.
type Generator struct {
	url    string
	bodies [][]byte
	conns  int
	client *http.Client
}

// NewGenerator builds a generator for url. bodies[i] is the request
// body of document i.
func NewGenerator(url string, bodies [][]byte, conns int) *Generator {
	return &Generator{
		url:    url,
		bodies: bodies,
		conns:  conns,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
}

// Close drops the idle connections.
func (g *Generator) Close() { g.client.CloseIdleConnections() }

// Open sends order[i] at i/rate seconds after the start, whether or not
// earlier requests have returned (as far as the connections allow: a
// request whose turn comes while every connection is busy goes out
// late, and its Latency still counts from when it was due).
func (g *Generator) Open(order []int, rate float64) []Sample {
	return g.run(order, time.Duration(float64(time.Second)/rate))
}

// Closed sends order through Conns clients that each wait for a reply
// before sending their next request.
func (g *Generator) Closed(order []int) []Sample {
	return g.run(order, 0)
}

func (g *Generator) run(order []int, interval time.Duration) []Sample {
	samples := make([]Sample, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				s := &samples[i]
				s.Doc = order[i]
				if interval > 0 {
					s.Due = time.Duration(i) * interval
					time.Sleep(s.Due - time.Since(start))
					s.Sent = time.Since(start)
				} else {
					s.Sent = time.Since(start)
					s.Due = s.Sent
				}
				s.Status, s.Body, s.Err = g.Post(s.Doc)
				s.Done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return samples
}

// Post sends document doc once and reads the whole response.
func (g *Generator) Post(doc int) (status int, body []byte, err error) {
	resp, err := g.client.Post(g.url, "application/json", bytes.NewReader(g.bodies[doc]))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// AchievedRate is the rate at which an open loop actually sent its
// requests; well below the target, the run measured the generator's
// connections and not the schedule.
func AchievedRate(samples []Sample) float64 {
	if len(samples) < 2 {
		return 0
	}
	return float64(len(samples)-1) / samples[len(samples)-1].Sent.Seconds()
}

// LatencyMs returns the median and the 95th percentile of the samples'
// latencies from their intended send times.
func LatencyMs(samples []Sample) (p50, p95 float64) {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = Ms(s.Latency())
	}
	return Median(lat), Percentile(lat, 95)
}

// Throughput is the rate at which a closed loop completed the requests
// that passed ok: their count over the time from the first send to the
// last response.
func Throughput(samples []Sample, ok func(Sample) bool) float64 {
	good := 0
	var last time.Duration
	for _, s := range samples {
		if ok(s) {
			good++
		}
		last = max(last, s.Done)
	}
	return float64(good) / last.Seconds()
}
