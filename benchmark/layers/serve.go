package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/benchmark/internal/gen"
	"repro/internal/core"
	"repro/internal/scop"
	"repro/polypipe"
)

// servePass decomposes a /v1/detect request from outside. Per
// operation it sends a document over loopback, hands one to the
// handler through httptest, and calls the layers the handler calls —
// scop.FromJSON, Fingerprint, the session's cached Detect (miss and
// hit), core.Detect — each under its own span. A cold corpus gives
// every one of those a document the server has not seen, after filling
// the cache as the driver's set-up does; a warm one replays primed
// documents. Every other loopback request is sent
// outside any span, for the overhead comparison. A short open-loop
// phase at the scenario's rate supplies the generator's own lateness
// and the p99.
func servePass(t *tracer, sc gen.Scenario, seed int64, sz gen.Scale, res *gen.Result) error {
	ops := max(20, int(200*sz.Seconds/20))
	perOp := 1
	if sc.Cold {
		perOp = 3 // loopback, handler and the layer calls each need an unseen document
	}
	members := sc.FixedDocs
	var priming []int // documents sent first to fill the cache, as the driver's set-up does
	if members == nil && sc.Cold {
		priming = gen.ColdPriming(sz)
		members = gen.Draw(seed, len(priming)+(perOp+1)*ops)
	} else if members == nil {
		members = gen.Draw(seed, gen.WarmDocs)
	}
	docs, err := gen.Docs(members)
	if err != nil {
		return err
	}
	svc, err := gen.StartService(docs)
	if err != nil {
		return err
	}
	defer svc.Stop()
	sess, srv, load := svc.Session, svc.Server, svc.Load
	own := polypipe.NewSession(polypipe.WithCache(0)) // the layer calls' own cache, so they do not warm the server's
	defer own.Close()

	count := func(status int, err error) {
		switch {
		case err == nil && status == http.StatusOK:
			t.add("serve.ok", "", 1)
		case err == nil && status == http.StatusServiceUnavailable:
			t.add("serve.shed", "", 1)
		default:
			t.add("serve.failed", "", 1)
		}
		res.Op(err == nil && status == http.StatusOK, "request: status=%d err=%v", status, err)
	}
	cachedDetect := func(metric string, sc *scop.SCoP, parent, op int) error {
		var err error
		t.time(metric, "", parent, op, func() { _, err = own.Detect(sc) })
		return err
	}

	if !sc.Cold {
		for i, d := range docs {
			status, _, err := load.Post(i)
			count(status, err)
			parsed, err := scop.FromJSON(d.Body)
			if err != nil {
				return err
			}
			parsed.Fingerprint()
			if err := cachedDetect("cache.get_miss_ms", parsed, -1, 0); err != nil {
				return err
			}
		}
	}
	prime := len(priming)
	for _, s := range load.Closed(priming) {
		count(s.Status, s.Err)
	}
	before, _ := sess.CacheStats()

	docAt := func(op, slot int) int {
		if sc.Cold {
			return prime + op*perOp + slot
		}
		return op % len(docs)
	}
	for op := 0; op < ops; op++ {
		root := t.begin("request", -1, op)

		var status int
		if op%2 == 0 {
			t.time("serve.loopback_ms", "", root, op, func() { status, _, err = load.Post(docAt(op, 0)) })
		} else {
			start := time.Now()
			status, _, err = load.Post(docAt(op, 0))
			t.add("serve.loopback_untraced_ms", "", gen.Ms(time.Since(start)))
		}
		count(status, err)

		body := docs[docAt(op, 1)].Body
		req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t.time("serve.handler_ms", "", root, op, func() { srv.Handler().ServeHTTP(rec, req) })
		count(rec.Code, nil)

		body = docs[docAt(op, 2)].Body
		var parsed *scop.SCoP
		t.time("scop.decode_ms", "", root, op, func() { parsed, err = scop.FromJSON(body) })
		if err != nil {
			return err
		}
		t.time("scop.fingerprint_ms", "", root, op, func() { parsed.Fingerprint() })
		if sc.Cold {
			if err := cachedDetect("cache.get_miss_ms", parsed, root, op); err != nil {
				return err
			}
		}
		if err := cachedDetect("cache.get_hit_ms", parsed, root, op); err != nil {
			return err
		}
		t.time("serve.detect_ms", "", root, op, func() { _, err = core.Detect(parsed, core.Options{}) })
		if err != nil {
			return err
		}
		t.end(root, "")
	}

	var order []int
	for i := 0; i < ops; i++ {
		order = append(order, (prime+perOp*ops+i)%len(docs))
	}
	samples := load.Open(order, sc.OpenRate)
	var lat, late []float64
	for _, s := range samples {
		count(s.Status, s.Err)
		lat = append(lat, gen.Ms(s.Latency()))
		late = append(late, gen.Ms(s.Late()))
	}
	after, _ := sess.CacheStats()
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)

	p50 := func(name string) float64 { return gen.Median(t.all(name)) }
	handler, decode, fingerprint := p50("serve.handler_ms"), p50("scop.decode_ms"), p50("scop.fingerprint_ms")
	get := p50("cache.get_hit_ms")
	if sc.Cold {
		get = p50("cache.get_miss_ms")
	}
	res.Set("scop.decode_ms", decode, "ms")
	res.Set("scop.fingerprint_ms", fingerprint, "ms")
	res.Set("cache.get_hit_us", 1000*p50("cache.get_hit_ms"), "us")
	res.Set("cache.get_miss_ms", p50("cache.get_miss_ms"), "ms")
	res.Set("cache.hits", hits, "count")
	res.Set("cache.misses", misses, "count")
	res.Set("cache.hit_share", hits/(hits+misses), "ratio")
	res.Set("serve.detect_ms", p50("serve.detect_ms"), "ms")
	res.Set("serve.handler_ms", handler, "ms")
	res.Set("serve.other_ms", handler-decode-fingerprint-get, "ms")
	res.Set("serve.loopback_ms", p50("serve.loopback_ms"), "ms")
	res.Set("serve.http_tax_ms", p50("serve.loopback_ms")-handler, "ms")
	res.Set("serve.lat_p99_ms", gen.Percentile(lat, 99), "ms")
	res.Set("serve.ok", float64(len(t.all("serve.ok"))), "count")
	res.Set("serve.shed", float64(len(t.all("serve.shed"))), "count")
	res.Set("serve.failed", float64(len(t.all("serve.failed"))), "count")
	res.Set("gen.late_p99_ms", gen.Percentile(late, 99), "ms")
	res.Set("gen.achieved_rps", gen.AchievedRate(samples), "req/s")
	if a := gen.AchievedRate(samples); a < 0.95*sc.OpenRate {
		fmt.Fprintf(os.Stderr, "warning: open loop sent %.1f req/s of %.1f\n", a, sc.OpenRate)
	}
	return nil
}
