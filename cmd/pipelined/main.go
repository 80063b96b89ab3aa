// Command pipelined is the detection daemon: it serves Algorithm 1
// over HTTP/JSON (internal/serve) with a tiered fingerprint cache —
// the in-process LRU backed, when -disk-cache is set, by a durable
// content-addressed store — and the admission plumbing a shared
// deployment needs: bounded in-flight work, per-tenant token-bucket
// quotas, and load shedding with Retry-After.
//
// Endpoints: POST /v1/detect and /v1/detect/batch (scop/v1 envelope,
// docs/API.md), GET /healthz, /metrics, /debug/*. SIGTERM/SIGINT
// start a graceful drain: /healthz flips to 503 so load balancers
// stop routing, queued work is shed, in-flight detections finish (up
// to -drain-timeout), then the process exits. docs/SERVING.md is the
// operator guide.
//
// Usage:
//
//	pipelined -addr :8080 -disk-cache /var/cache/pipelined
//	pipelined -addr 127.0.0.1:0 -tenant-rate 50 -tenant-burst 100
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/polypipe"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:0 picks a random port)")
	workers := flag.Int("workers", 0, "detection worker-pool width (0 = GOMAXPROCS)")
	backend := flag.String("backend", "", "detection backend: \"\"/explicit or symbolic")
	cacheCap := flag.Int("cache", 0, "in-memory cache capacity in entries (0 = default)")
	diskCache := flag.String("disk-cache", "", "directory for the durable cache tier (empty = memory only)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent detections admitted (0 = 2x GOMAXPROCS)")
	maxQueue := flag.Int("queue", 0, "admission queue bound before shedding (0 = 4x max-inflight)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant sustained requests/sec (0 = no quotas)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant burst depth (0 = max(rate, 1))")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight work on shutdown")
	sampleInterval := flag.Duration("sample-interval", 0, "continuous sampler period (0 = sampler off)")
	flag.Parse()

	cfg := polypipe.Config{
		Workers:       *workers,
		Options:       polypipe.Options{Backend: *backend},
		Backend:       *backend,
		Cache:         true,
		CacheCapacity: *cacheCap,
		DiskCacheDir:  *diskCache,
		Registry:      polypipe.NewRegistry(),
	}
	if *sampleInterval > 0 {
		cfg.Sampler = true
		cfg.SampleInterval = *sampleInterval
	}
	sess := polypipe.NewSessionFromConfig(cfg)
	defer sess.Close()
	if err := sess.DiskCacheError(); err != nil {
		fatal(fmt.Errorf("disk cache: %w", err))
	}

	srv := serve.New(sess, serve.Limits{
		MaxInFlight: *maxInflight,
		MaxQueue:    *maxQueue,
		TenantRate:  *tenantRate,
		TenantBurst: *tenantBurst,
	}, cfg.Registry)

	bound, err := srv.Serve(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serving on http://%s\n", bound)
	if *diskCache != "" {
		fmt.Printf("disk cache at %s\n", *diskCache)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("shutting down after %v: draining for up to %v\n", got, *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	fmt.Println("drained; bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipelined:", err)
	os.Exit(1)
}
