// Package cache is the content-addressed detection cache: a sharded,
// bounded LRU from SCoP fingerprint (plus the semantic detection
// options) to a frozen, immutable *core.Info, with in-flight
// deduplication so N concurrent requests for one SCoP run Detect once.
//
// The key is scop.Fingerprint — a canonical, parameter-aware content
// hash — combined with the Options fields that change the result
// (PairwiseBlocks, AllowOverwrites). Workers is excluded because
// detection is bit-identical across pool widths (the determinism
// contract, docs/PERFORMANCE.md), MinBlockIters because only the plan
// (codegen) reads it, so one entry serves every granularity, and Obs
// because observation never changes behaviour. Two differently named,
// separately built SCoPs with the same polyhedral content therefore
// share one entry; results served from another request's entry are
// rebound to the caller's *scop.SCoP so task bodies resolve to the
// caller's closures.
package cache

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scop"
)

// DefaultCapacity is the entry bound a Cache built with capacity <= 0
// gets. One entry is one detected SCoP; sizing guidance lives in
// docs/PERFORMANCE.md.
const DefaultCapacity = 128

const numShards = 8

// Key is the cache address of one detection result.
type Key struct {
	FP scop.Fingerprint
	// The semantic option fields.
	PairwiseBlocks  bool
	AllowOverwrites bool
}

// KeyFor returns the cache key Get would use for (sc, opts).
func KeyFor(sc *scop.SCoP, opts core.Options) Key {
	return Key{
		FP:              sc.Fingerprint(),
		PairwiseBlocks:  opts.PairwiseBlocks,
		AllowOverwrites: opts.AllowOverwrites,
	}
}

type entry struct {
	key  Key
	info *core.Info // frozen; info.SCoP is the first-seen instance
}

// flight is one in-progress detection; waiters block on done.
type flight struct {
	done chan struct{}
	info *core.Info
	err  error
}

type shard struct {
	mu       sync.Mutex
	entries  map[Key]*list.Element // of *entry
	lru      list.List             // front = most recently used
	inflight map[Key]*flight
}

// Tier is a second-level store consulted behind the in-memory LRU: a
// miss probes Load before running Detect, and a completed detection is
// written through with Store. Implementations must be safe for
// concurrent use and must return Load results that are frozen and
// bound to the passed SCoP; internal/cache/disk is the durable
// implementation.
type Tier interface {
	// Load returns the frozen detection result for key bound to sc, or
	// false on a miss. Failures are misses — a tier accelerates, it
	// never gates.
	Load(key Key, sc *scop.SCoP) (*core.Info, bool)
	// Store persists a frozen detection result under key.
	Store(key Key, info *core.Info)
}

// Cache is a sharded, bounded, in-process detection cache. All methods
// are safe for concurrent use; cached Info values are frozen and may
// be read (and executed) concurrently without synchronization.
type Cache struct {
	shards   [numShards]shard
	perShard int
	tier     Tier

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	dedup     *obs.Counter
	entries   *obs.Gauge
	batchNS   *obs.Histogram
}

// New builds a cache bounded to capacity entries (DefaultCapacity when
// capacity <= 0). Counters, the entry gauge, and the batch-latency
// histogram are registered on reg under the cache.* names catalogued
// in docs/OBSERVABILITY.md; a nil reg wires them to a private registry
// so the cache never branches on observability.
func New(capacity int, reg *obs.Registry) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Cache{
		perShard:  (capacity + numShards - 1) / numShards,
		hits:      reg.Counter("cache.hits"),
		misses:    reg.Counter("cache.misses"),
		evictions: reg.Counter("cache.evictions"),
		dedup:     reg.Counter("cache.inflight_dedup"),
		entries:   reg.Gauge("cache.entries"),
		batchNS:   reg.Histogram("cache.batch_ns", nil),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*list.Element)
		c.shards[i].inflight = make(map[Key]*flight)
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	// The fingerprint is already uniform; fold both lanes and the
	// option bits so option variants of one SCoP spread too.
	h := k.FP[0] ^ k.FP[1]*0x9e3779b97f4a7c15
	if k.PairwiseBlocks {
		h ^= 1 << 32
	}
	if k.AllowOverwrites {
		h ^= 1 << 33
	}
	return &c.shards[h%numShards]
}

// Get returns the detection result for sc under opts, running Detect
// at most once per key across all concurrent callers. Hits and
// deduplicated waits return a view of the shared frozen Info rebound
// to sc; the leader's own result is cached frozen and returned as-is.
//
// ctx bounds only the wait: a waiter whose ctx is done abandons the
// flight with ctx.Err() while the leader's Detect always runs to
// completion and fills the cache (detection itself is not cancelable).
func (c *Cache) Get(ctx context.Context, sc *scop.SCoP, opts core.Options) (*core.Info, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	key := KeyFor(sc, opts)
	sh := c.shardFor(key)

	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.lru.MoveToFront(el)
		info := el.Value.(*entry).info
		sh.mu.Unlock()
		c.hits.Inc()
		return Rebind(info, sc), nil
	}
	c.misses.Inc()
	if f, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		c.dedup.Inc()
		return c.wait(ctx, f, sc)
	}
	f := &flight{done: make(chan struct{})}
	sh.inflight[key] = f
	sh.mu.Unlock()

	// Second tier: a durable store (disk) answers before Detect runs.
	// The flight is already registered, so concurrent misses wait on
	// one tier probe + detection, not N.
	var info *core.Info
	var err error
	fromTier := false
	if c.tier != nil {
		info, fromTier = c.tier.Load(key, sc)
	}
	if !fromTier {
		info, err = core.Detect(sc, opts)
		if err == nil {
			info.Freeze()
		}
	}
	f.info, f.err = info, err
	close(f.done)

	sh.mu.Lock()
	delete(sh.inflight, key)
	if err == nil {
		c.insertLocked(sh, key, info)
	}
	sh.mu.Unlock()
	if err == nil && !fromTier && c.tier != nil {
		c.tier.Store(key, info)
	}
	return info, err
}

// SetTier attaches a second-level store behind the in-memory LRU (nil
// detaches). Set it before serving traffic; the field is read without
// synchronization on the miss path.
func (c *Cache) SetTier(t Tier) { c.tier = t }

// wait blocks until f resolves or ctx is done, rebinding a successful
// result to the waiter's own SCoP instance.
func (c *Cache) wait(ctx context.Context, f *flight, sc *scop.SCoP) (*core.Info, error) {
	if ctx != nil {
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	} else {
		<-f.done
	}
	if f.err != nil {
		return nil, f.err
	}
	return Rebind(f.info, sc), nil
}

// insertLocked adds key→info to sh (which the caller holds locked) and
// evicts from the cold end past the per-shard bound.
func (c *Cache) insertLocked(sh *shard, key Key, info *core.Info) {
	if el, ok := sh.entries[key]; ok {
		// A racing leader for the same key (possible when a waiter's
		// flight resolved between our probe and insert) already filled
		// it; keep the incumbent.
		sh.lru.MoveToFront(el)
		return
	}
	sh.entries[key] = sh.lru.PushFront(&entry{key: key, info: info})
	c.entries.Add(1)
	for sh.lru.Len() > c.perShard {
		cold := sh.lru.Back()
		sh.lru.Remove(cold)
		delete(sh.entries, cold.Value.(*entry).key)
		c.entries.Add(-1)
		c.evictions.Inc()
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time read of the cache counters.
type Stats struct {
	Hits, Misses, Evictions, InflightDedup int64
	Entries                                int64
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Evictions:     c.evictions.Value(),
		InflightDedup: c.dedup.Value(),
		Entries:       c.entries.Value(),
	}
}

// Rebind returns a view of a cached detection result whose statement
// pointers resolve into sc instead of the first-seen SCoP the entry
// was detected from. The two SCoPs share a fingerprint, so their
// polyhedral content — statement count, indices, domains, accesses —
// is identical; only identity (and the executable Body closures)
// differs, and those are exactly what the view swaps. The isl maps,
// blocks, and in-dependency columns are shared with the cached result:
// they are frozen and read-only, so the view costs one shallow copy per
// statement. Blocks are positions in their statement's sorted domain,
// so members resolve against sc's (content-identical) domains, which
// the view freezes for concurrent readers. When info was detected
// from sc itself it is returned unchanged.
//
// The shared Graph is kept as-is: its post-detection accessors
// (ParallelDims, Flow) key on statement Index, so
// they answer identically for rebound statements.
func Rebind(info *core.Info, sc *scop.SCoP) *core.Info {
	if info.SCoP == sc {
		return info
	}
	out := &core.Info{
		SCoP:  sc,
		Graph: info.Graph,
		Pairs: make([]core.PipelinePair, len(info.Pairs)),
		Stmts: make([]*core.StmtInfo, len(info.Stmts)),
	}
	for i, p := range info.Pairs {
		p.Src = sc.Stmts[p.Src.Index]
		p.Dst = sc.Stmts[p.Dst.Index]
		out.Pairs[i] = p
	}
	for i, si := range info.Stmts {
		cp := *si
		cp.Stmt = sc.Stmts[si.Stmt.Index]
		cp.Stmt.Domain.Freeze()
		if len(si.InDeps) > 0 {
			cp.InDeps = make([]core.InDep, len(si.InDeps))
			for j, d := range si.InDeps {
				d.Src = sc.Stmts[d.Src.Index]
				cp.InDeps[j] = d
			}
		}
		out.Stmts[i] = &cp
	}
	return out
}
