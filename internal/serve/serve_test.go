package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/scop"
	"repro/polypipe"
)

func newTestServer(t *testing.T, lim Limits, opts ...polypipe.SessionOption) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	opts = append([]polypipe.SessionOption{polypipe.WithRegistry(reg), polypipe.WithCache(0)}, opts...)
	sess := polypipe.NewSession(opts...)
	t.Cleanup(func() { sess.Close() })
	srv := New(sess, lim, reg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, reg
}

func envelopedKernel(t *testing.T) []byte {
	t.Helper()
	body, err := scop.ToJSONEnveloped(kernels.Listing3(16).SCoP)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func post(t *testing.T, url, tenant string, body []byte) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, out
}

func errCode(t *testing.T, out map[string]any) string {
	t.Helper()
	e, ok := out["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error object in %v", out)
	}
	code, _ := e["code"].(string)
	return code
}

func TestDetectHappyPath(t *testing.T) {
	_, ts, reg := newTestServer(t, Limits{})
	resp, out := post(t, ts.URL+"/v1/detect", "", envelopedKernel(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["schema"] != scop.SchemaV1 {
		t.Fatalf("response schema = %v", out["schema"])
	}
	if out["fingerprint"] == "" {
		t.Fatal("no fingerprint")
	}
	pairs := out["pairs"].([]any)
	if len(pairs) == 0 {
		t.Fatal("Listing3 should detect at least one pipeline pair")
	}
	if out["total_blocks"].(float64) <= 0 {
		t.Fatal("no blocks in summary")
	}
	snap := reg.Snapshot()
	if snap.Counter("serve.requests") != 1 || snap.Counter("serve.responses.ok") != 1 {
		t.Fatalf("request counters: %+v", snap.Counters)
	}
	if snap.Counter("cache.misses") != 1 {
		t.Fatal("detection should have gone through the session cache")
	}
}

func TestDetectRejectsBareDocument(t *testing.T) {
	// The Go API accepts bare legacy documents; the HTTP surface must
	// not — wire compatibility is versioned or it is nothing.
	_, ts, _ := newTestServer(t, Limits{})
	bare, err := scop.ToJSON(kernels.Listing3(16).SCoP)
	if err != nil {
		t.Fatal(err)
	}
	resp, out := post(t, ts.URL+"/v1/detect", "", bare)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if code := errCode(t, out); code != CodeBadSchema {
		t.Fatalf("code %q, want %q", code, CodeBadSchema)
	}
}

func TestDetectMalformedBodies(t *testing.T) {
	_, ts, _ := newTestServer(t, Limits{})
	cases := []struct {
		name string
		body string
		code string
	}{
		{"not json", "{", CodeBadRequest},
		{"unknown schema", `{"schema":"scop/v9","scop":{}}`, CodeBadSchema},
		{"missing payload", `{"schema":"scop/v1"}`, CodeBadRequest},
		{"empty scop", `{"schema":"scop/v1","scop":{}}`, CodeBadRequest},
	}
	for _, tc := range cases {
		resp, out := post(t, ts.URL+"/v1/detect", "", []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", tc.name, resp.StatusCode)
		}
		if code := errCode(t, out); code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.name, code, tc.code)
		}
	}
}

func TestDetectNotPipelinable(t *testing.T) {
	_, ts, _ := newTestServer(t, Limits{})
	// Two statements both writing A[i]: a write-write cross hazard the
	// document parses fine but detection rejects with
	// ErrNotPipelinable.
	doc := `{"schema":"scop/v1","scop":{
		"name":"hazard",
		"arrays":[{"name":"A","dim":1}],
		"statements":[
			{"name":"S",
			 "bounds":[{"lo":{"nvars":0,"const":0},"hi":{"nvars":0,"const":3}}],
			 "write":{"array":"A","index":[{"nvars":1,"coeffs":[1]}]}},
			{"name":"T",
			 "bounds":[{"lo":{"nvars":0,"const":0},"hi":{"nvars":0,"const":3}}],
			 "write":{"array":"A","index":[{"nvars":1,"coeffs":[1]}]}}]}}`
	resp, out := post(t, ts.URL+"/v1/detect", "", []byte(doc))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if code := errCode(t, out); code != CodeNotPipelinable {
		t.Fatalf("code %q, want %q", code, CodeNotPipelinable)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts, reg := newTestServer(t, Limits{})
	good, err := scop.ToJSON(kernels.Listing3(16).SCoP)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"schema":"scop/v1","scops":[%s,{"bogus":true},%s]}`, good, good)
	resp, out := post(t, ts.URL+"/v1/detect/batch", "", []byte(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	results := out["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	if results[0] == nil || results[2] == nil {
		t.Fatal("valid items missing results")
	}
	if results[1] != nil {
		t.Fatal("invalid item produced a result")
	}
	errs := out["errors"].([]any)
	if len(errs) != 1 {
		t.Fatalf("%d item errors, want 1", len(errs))
	}
	if idx := errs[0].(map[string]any)["index"].(float64); idx != 1 {
		t.Fatalf("error index %v, want 1", idx)
	}
	if reg.Snapshot().Counter("serve.batch_items") != 3 {
		t.Fatal("batch items not counted")
	}
}

// TestMalformedExpressionIsBadRequest: a document whose floor division
// has a zero denominator is refused with a 400 on /v1/detect and as a
// per-item error in a batch, rather than panicking the handler.
func TestMalformedExpressionIsBadRequest(t *testing.T) {
	_, ts, _ := newTestServer(t, Limits{})
	bad := `{"name":"x","arrays":[{"name":"A","dim":1}],"statements":[{"name":"S",` +
		`"bounds":[{"lo":{"nvars":0},"hi":{"nvars":0,"const":4}}],` +
		`"write":{"array":"A","index":[{"nvars":1,"divs":[{"coef":1,"inner":{"nvars":1,"coeffs":[1]},"den":0}]}]}}]}`
	resp, out := post(t, ts.URL+"/v1/detect", "", []byte(`{"schema":"scop/v1","scop":`+bad+`}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if code := errCode(t, out); code != CodeBadRequest {
		t.Fatalf("code %q, want %q", code, CodeBadRequest)
	}

	good, err := scop.ToJSON(kernels.Listing3(16).SCoP)
	if err != nil {
		t.Fatal(err)
	}
	resp, out = post(t, ts.URL+"/v1/detect/batch", "", []byte(fmt.Sprintf(`{"schema":"scop/v1","scops":[%s,%s]}`, good, bad)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %v", resp.StatusCode, out)
	}
	results := out["results"].([]any)
	if len(results) != 2 || results[0] == nil || results[1] != nil {
		t.Fatalf("batch results = %v", results)
	}
	errs := out["errors"].([]any)
	if len(errs) != 1 || errs[0].(map[string]any)["index"].(float64) != 1 {
		t.Fatalf("batch errors = %v", errs)
	}
}

func TestQuotaExhaustion(t *testing.T) {
	_, ts, reg := newTestServer(t, Limits{TenantRate: 0.001, TenantBurst: 2})
	body := envelopedKernel(t)
	for i := 0; i < 2; i++ {
		resp, out := post(t, ts.URL+"/v1/detect", "alice", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %v", i, resp.StatusCode, out)
		}
	}
	resp, out := post(t, ts.URL+"/v1/detect", "alice", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if code := errCode(t, out); code != CodeQuotaExhausted {
		t.Fatalf("code %q", code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if reg.Snapshot().Counter("serve.quota_denials") != 1 {
		t.Fatal("quota denial not counted")
	}
}

func TestTenantIsolation(t *testing.T) {
	// Alice burning her bucket must not affect bob or the default
	// tenant.
	_, ts, reg := newTestServer(t, Limits{TenantRate: 0.001, TenantBurst: 1})
	body := envelopedKernel(t)
	if resp, _ := post(t, ts.URL+"/v1/detect", "alice", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("alice's first request: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/detect", "alice", body); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice's second request should be quota-denied, got %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/detect", "bob", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob throttled by alice's quota: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/detect", "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("default tenant throttled by alice's quota: %d", resp.StatusCode)
	}
	snap := reg.Snapshot()
	// Per-tenant latency histograms exist for everyone who got through.
	for _, name := range []string{"serve.tenant.alice.request_ns", "serve.tenant.bob.request_ns", "serve.tenant.default.request_ns"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Fatalf("missing per-tenant histogram %s", name)
		}
	}
}

func TestShedOnOverload(t *testing.T) {
	srv, ts, reg := newTestServer(t, Limits{MaxInFlight: 1, MaxQueue: 1})
	// Occupy the single in-flight slot and the single queue slot, as a
	// stalled detection plus one legitimate waiter would.
	srv.sem <- struct{}{}
	srv.queueG.Add(1)

	resp, out := post(t, ts.URL+"/v1/detect", "", envelopedKernel(t))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if code := errCode(t, out); code != CodeOverloaded {
		t.Fatalf("code %q", code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed without Retry-After")
	}
	if reg.Snapshot().Counter("serve.sheds") != 1 {
		t.Fatal("shed not counted")
	}
	<-srv.sem
	srv.queueG.Add(-1)
	// With the slot free the same request succeeds.
	if resp, _ := post(t, ts.URL+"/v1/detect", "", envelopedKernel(t)); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-overload request: %d", resp.StatusCode)
	}
}

func TestDrainRefusesAndHealthzFlips(t *testing.T) {
	srv, ts, reg := newTestServer(t, Limits{})
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %v %v", resp.StatusCode, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, out := post(t, ts.URL+"/v1/detect", "", envelopedKernel(t))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d", resp.StatusCode)
	}
	if code := errCode(t, out); code != CodeDraining {
		t.Fatalf("code %q", code)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d", hresp.StatusCode)
	}
	snap := reg.Snapshot()
	if snap.Gauge("serve.draining") != 1 {
		t.Fatal("serve.draining gauge not set")
	}
	if snap.Counter("serve.sheds") == 0 {
		t.Fatal("drain refusal not counted as shed")
	}
}

func TestMetricsEndpointServesSessionAndServe(t *testing.T) {
	_, ts, _ := newTestServer(t, Limits{})
	if resp, _ := post(t, ts.URL+"/v1/detect", "", envelopedKernel(t)); resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"serve_requests", "serve_queue_depth", "cache_misses"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, text)
		}
	}
}

// TestConcurrentRequestsOneSession drives many concurrent requests —
// mixed tenants, repeated and distinct SCoPs — against one Session to
// exercise the admission path, cache singleflight, and per-tenant
// histograms under the race detector.
func TestConcurrentRequestsOneSession(t *testing.T) {
	_, ts, reg := newTestServer(t, Limits{MaxInFlight: 4, MaxQueue: 64})
	bodies := [][]byte{envelopedKernel(t)}
	for _, name := range []string{"P2", "P4", "P7"} {
		p, err := kernels.Table9Program(name, 10, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := scop.ToJSONEnveloped(p.SCoP)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	const goroutines = 16
	const perG = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%3)
			for i := 0; i < perG; i++ {
				body := bodies[(g+i)%len(bodies)]
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				req.Header.Set("X-Tenant", tenant)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d request %d: status %d", g, i, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("serve.responses.ok"); got != goroutines*perG {
		t.Fatalf("serve.responses.ok = %d, want %d", got, goroutines*perG)
	}
	// 4 distinct SCoPs were requested 128 times: the cache must have
	// collapsed detection to at most a handful of misses.
	if misses := snap.Counter("cache.misses"); misses < int64(len(bodies)) {
		t.Fatalf("cache.misses = %d, want >= %d", misses, len(bodies))
	}
	if hits := snap.Counter("cache.hits"); hits == 0 {
		t.Fatal("no cache hits across repeated identical requests")
	}
	if snap.Gauge("serve.inflight") != 0 {
		t.Fatal("inflight gauge did not return to zero")
	}
	if snap.Gauge("serve.queue_depth") != 0 {
		t.Fatal("queue depth gauge did not return to zero")
	}
	if snap.Gauge("serve.queue_peak") < 1 {
		t.Fatal("queue watermark never moved under 16-way load")
	}
}

func TestDebugTenantsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Limits{TenantRate: 0.001, TenantBurst: 2})
	body := envelopedKernel(t)
	// alice: 2 admitted, 1 denied; bob: 1 admitted.
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/v1/detect", "alice", body)
	}
	post(t, ts.URL+"/v1/detect", "bob", body)

	resp, err := http.Get(ts.URL + "/debug/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out TenantsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Enabled || out.Rate != 0.001 || out.Burst != 2 {
		t.Fatalf("policy = %+v", out)
	}
	if len(out.Tenants) != 2 {
		t.Fatalf("tenants = %+v", out.Tenants)
	}
	// snapshot sorts by name: alice before bob.
	alice, bob := out.Tenants[0], out.Tenants[1]
	if alice.Tenant != "alice" || bob.Tenant != "bob" {
		t.Fatalf("order = %q, %q", alice.Tenant, bob.Tenant)
	}
	if alice.Admitted != 2 || alice.Denied != 1 {
		t.Fatalf("alice = %+v", alice)
	}
	if bob.Admitted != 1 || bob.Denied != 0 {
		t.Fatalf("bob = %+v", bob)
	}
	if alice.Tokens >= 1 {
		t.Fatalf("alice's bucket should be drained, tokens = %v", alice.Tokens)
	}
	if alice.Rate != 0.001 || alice.Burst != 2 {
		t.Fatalf("alice bucket config = %+v", alice)
	}
}

func TestDebugTenantsQuotasDisabled(t *testing.T) {
	_, ts, _ := newTestServer(t, Limits{})
	post(t, ts.URL+"/v1/detect", "alice", envelopedKernel(t))
	resp, err := http.Get(ts.URL + "/debug/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out TenantsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Enabled || len(out.Tenants) != 0 {
		t.Fatalf("quotas disabled, got %+v", out)
	}
}
