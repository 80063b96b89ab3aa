package disk

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scop"
)

// Store is the content-addressed on-disk tier. One cache key is one
// file named by the fingerprint and the semantic option bits; writes
// go through a temp file + rename so readers never observe a partial
// entry, and a corrupt or truncated file is treated as a miss (and
// counted on cache.disk.errors), never an outage.
//
// All methods are safe for concurrent use by any number of goroutines
// and processes sharing the directory: the in-memory cache's
// singleflight already collapses concurrent misses per process, and
// cross-process races at worst write the same content twice.
type Store struct {
	dir string

	hits    *obs.Counter
	misses  *obs.Counter
	writes  *obs.Counter
	errors  *obs.Counter
	bytesW  *obs.Counter
	loadNS  *obs.Histogram
	storeNS *obs.Histogram
}

// New opens (creating if needed) the store rooted at dir. Counters
// land on reg under the cache.disk.* names catalogued in
// docs/OBSERVABILITY.md; a nil reg wires them to a private registry.
func New(dir string, reg *obs.Registry) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("disk: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: create store: %w", err)
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Store{
		dir:     dir,
		hits:    reg.Counter("cache.disk.hits"),
		misses:  reg.Counter("cache.disk.misses"),
		writes:  reg.Counter("cache.disk.writes"),
		errors:  reg.Counter("cache.disk.errors"),
		bytesW:  reg.Counter("cache.disk.bytes_written"),
		loadNS:  reg.Histogram("cache.disk.load_ns", nil),
		storeNS: reg.Histogram("cache.disk.store_ns", nil),
	}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path names the entry file for key: the fingerprint plus the
// semantic option bits, so option variants of one SCoP coexist.
func (s *Store) path(key cache.Key) string {
	pw, ow := 0, 0
	if key.PairwiseBlocks {
		pw = 1
	}
	if key.AllowOverwrites {
		ow = 1
	}
	return filepath.Join(s.dir, fmt.Sprintf("%s-p%d-o%d.gob", key.FP, pw, ow))
}

// Load reads the entry for key and rebinds it to sc, reporting a miss
// for absent, corrupt, version-skewed, or fingerprint-mismatched
// entries. A loaded Info is frozen and bit-identical to the Detect
// result it was stored from.
func (s *Store) Load(key cache.Key, sc *scop.SCoP) (*core.Info, bool) {
	start := time.Now()
	f, err := os.Open(s.path(key))
	if err != nil {
		s.misses.Inc()
		return nil, false
	}
	defer f.Close()
	var e encInfo
	if err := gob.NewDecoder(f).Decode(&e); err != nil {
		s.errors.Inc()
		s.misses.Inc()
		return nil, false
	}
	if e.Fingerprint != key.FP.String() || e.Fingerprint != sc.Fingerprint().String() {
		// A hash-named file can only mismatch through corruption or a
		// colliding rename; never bind it to the wrong program.
		s.errors.Inc()
		s.misses.Inc()
		return nil, false
	}
	info, err := decode(&e, sc)
	if err != nil {
		s.errors.Inc()
		s.misses.Inc()
		return nil, false
	}
	s.hits.Inc()
	s.loadNS.Observe(time.Since(start).Nanoseconds())
	return info, true
}

// Store persists info under key via temp-file + atomic rename. Errors
// are counted and swallowed: the disk tier is an accelerator, never a
// correctness dependency.
func (s *Store) Store(key cache.Key, info *core.Info) {
	start := time.Now()
	e, err := encode(info)
	if err != nil {
		s.errors.Inc()
		return
	}
	tmp, err := os.CreateTemp(s.dir, "entry-*.tmp")
	if err != nil {
		s.errors.Inc()
		return
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	cw := &countingWriter{w: tmp}
	if err := gob.NewEncoder(cw).Encode(e); err != nil {
		tmp.Close()
		s.errors.Inc()
		return
	}
	if err := tmp.Close(); err != nil {
		s.errors.Inc()
		return
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		s.errors.Inc()
		return
	}
	s.writes.Inc()
	s.bytesW.Add(cw.n)
	s.storeNS.Observe(time.Since(start).Nanoseconds())
}

// Len counts the entries currently on disk.
func (s *Store) Len() int {
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.gob"))
	if err != nil {
		return 0
	}
	return len(matches)
}

type countingWriter struct {
	w interface{ Write([]byte) (int, error) }
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
