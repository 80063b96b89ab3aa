package polypipe

import (
	"context"
	"time"
)

// Config is the consolidated session configuration: every knob the
// With* options set, as one documented struct. It exists for callers
// that build sessions from external configuration (flags, files, a
// serving process) where a literal struct reads better than a chain of
// options; the functional options remain the primary API and
// NewSession stays variadic — pass a Config through WithConfig, and
// later options override its fields:
//
//	s := polypipe.NewSession(polypipe.WithConfig(cfg), polypipe.WithWorkers(8))
//
// The zero Config is the zero session: no cache, no registry,
// background context, GOMAXPROCS workers. See docs/API.md for the
// field-by-field migration table from the With* options.
type Config struct {
	// Workers is the execution and detection worker-pool width
	// (WithWorkers; 0 = GOMAXPROCS).
	Workers int
	// Options are the detection options (WithOptions).
	Options Options
	// Backend, when non-empty, overrides Options.Backend (WithBackend):
	// "explicit" for the enumerated path, BackendSymbolic for the
	// constraint algebra. Empty leaves Options.Backend in charge.
	Backend string
	// Cache attaches the content-addressed detection cache (WithCache);
	// CacheCapacity bounds it (<= 0 = cache.DefaultCapacity).
	Cache         bool
	CacheCapacity int
	// DiskCacheDir, when non-empty, backs the in-memory cache with the
	// content-addressed disk tier rooted at this directory
	// (WithDiskCache). It implies Cache.
	DiskCacheDir string
	// Registry receives detection/cache/runtime metrics (WithRegistry).
	Registry *Registry
	// Context bounds the session's cancelable waits (WithContext).
	Context context.Context
	// Introspection, when non-empty, starts the embedded introspection
	// server on this address (WithIntrospection).
	Introspection string
	// Sampler starts the continuous time-series sampler (WithSampler);
	// SampleInterval/SampleCapacity tune it (<= 0 = defaults).
	Sampler        bool
	SampleInterval time.Duration
	SampleCapacity int
}

// WithConfig applies every set field of cfg, as if the matching With*
// options had been passed at this position (later options still
// override).
func WithConfig(cfg Config) SessionOption {
	return func(s *Session) {
		s.workers = cfg.Workers
		s.opts = cfg.Options
		if cfg.Backend != "" {
			s.backend, s.wantBackend = cfg.Backend, true
		}
		if cfg.Cache || cfg.DiskCacheDir != "" {
			s.wantCache, s.cacheCap = true, cfg.CacheCapacity
		}
		s.diskDir = cfg.DiskCacheDir
		if cfg.Registry != nil {
			s.registry = cfg.Registry
		}
		if cfg.Context != nil {
			s.ctx = cfg.Context
		}
		if cfg.Introspection != "" {
			s.introAddr = cfg.Introspection
		}
		if cfg.Sampler {
			s.wantSampler = true
			s.sampleIv, s.sampleCap = cfg.SampleInterval, cfg.SampleCapacity
		}
	}
}

// NewSessionFromConfig builds a session from the consolidated struct;
// exactly NewSession(WithConfig(cfg)).
func NewSessionFromConfig(cfg Config) *Session {
	return NewSession(WithConfig(cfg))
}
