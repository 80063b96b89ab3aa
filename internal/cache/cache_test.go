package cache

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzzscop"
	"repro/internal/isl/aff"
	"repro/internal/obs"
	"repro/internal/scop"
)

// buildChain constructs a fresh producer/consumer SCoP instance; n
// parametrizes its content so different n means a different
// fingerprint, while equal n rebuilds identical content under new
// pointers (the rebinding case).
func buildChain(t testing.TB, n int) *scop.SCoP {
	t.Helper()
	b := scop.NewBuilder("chain")
	b.Array("A", 1).Array("B", 1)
	b.Stmt("S", aff.RectDomain("S", n)).Writes("A", aff.Var(1, 0))
	b.Stmt("T", aff.RectDomain("T", n)).
		Writes("B", aff.Var(1, 0)).
		Reads("A", aff.Var(1, 0))
	return b.MustBuild()
}

// TestGetBitIdenticalToDetect is the core property: serving through
// the cache — cold, hot on the same instance, and hot on a separately
// built instance — yields results structurally identical to a direct
// Detect.
func TestGetBitIdenticalToDetect(t *testing.T) {
	for _, sc := range []*scop.SCoP{buildChain(t, 16), fuzzscop.Stress()} {
		want, err := core.Detect(sc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := New(0, nil)
		cold, err := c.Get(context.Background(), sc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := core.EqualInfo(want, cold); err != nil {
			t.Fatalf("cold result differs from Detect: %v", err)
		}
		hot, err := c.Get(context.Background(), sc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if hot != cold {
			t.Fatal("hot hit on the same instance should return the cached Info unchanged")
		}
	}
}

// TestRebindAcrossInstances: a hit from a separately built SCoP with
// the same content serves the shared frozen maps but the caller's own
// statements.
func TestRebindAcrossInstances(t *testing.T) {
	first, second := buildChain(t, 12), buildChain(t, 12)
	c := New(0, nil)
	a, err := c.Get(context.Background(), first, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Get(context.Background(), second, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want one miss then one hit", st)
	}
	if err := core.EqualInfo(a, b); err != nil {
		t.Fatalf("rebound result differs: %v", err)
	}
	if b.SCoP != second {
		t.Fatal("rebound Info does not reference the caller's SCoP")
	}
	for i, si := range b.Stmts {
		if si.Stmt != second.Stmts[i] {
			t.Fatalf("stmt %d not rebound to the caller's statement", i)
		}
	}
	for _, p := range b.Pairs {
		if p.Src != second.Stmts[p.Src.Index] || p.Dst != second.Stmts[p.Dst.Index] {
			t.Fatal("pair endpoints not rebound")
		}
	}
	for _, si := range b.Stmts {
		for _, d := range si.InDeps {
			if d.Src != second.Stmts[d.Src.Index] {
				t.Fatal("in-dep source not rebound")
			}
		}
	}
	// The expensive structures are shared, not recomputed.
	if b.Stmts[0].E != a.Stmts[0].E || b.Graph != a.Graph {
		t.Fatal("rebound view should share the frozen maps and graph")
	}
}

// TestOptionsPartitionTheCache: semantic options address distinct
// entries; Workers and MinBlockIters, which detection never reads, do
// not.
func TestOptionsPartitionTheCache(t *testing.T) {
	sc := buildChain(t, 8)
	base := KeyFor(sc, core.Options{})
	for _, opts := range []core.Options{{Workers: 8}, {MinBlockIters: 1}, {MinBlockIters: 4}, {MinBlockIters: 64}} {
		if KeyFor(sc, opts) != base {
			t.Fatalf("%+v moved the key", opts)
		}
	}
	for name, opts := range map[string]core.Options{
		"PairwiseBlocks":  {PairwiseBlocks: true},
		"AllowOverwrites": {AllowOverwrites: true},
	} {
		if KeyFor(sc, opts) == base {
			t.Errorf("%s ignored by the cache key", name)
		}
	}
	if KeyFor(buildChain(t, 9), core.Options{}) == base {
		t.Fatal("content change ignored by the cache key")
	}
}

// TestEvictionUnderPressure: a bounded cache under a working set
// larger than its capacity evicts cold entries, stays within its
// bound, and keeps serving correct results for evicted keys.
func TestEvictionUnderPressure(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(8, reg) // one entry per shard
	ctx := context.Background()
	const distinct = 40
	for i := 0; i < distinct; i++ {
		if _, err := c.Get(ctx, buildChain(t, 4+i), core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n > 8 {
		t.Fatalf("cache holds %d entries, bound is 8", n)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	if st.Entries != int64(c.Len()) {
		t.Fatalf("entries gauge %d vs actual %d", st.Entries, c.Len())
	}
	if st.Evictions+st.Entries != int64(distinct) {
		t.Fatalf("evictions %d + resident %d != %d inserted", st.Evictions, st.Entries, distinct)
	}
	// An evicted key is simply a miss again — and still correct.
	sc := buildChain(t, 4)
	want, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.EqualInfo(want, got); err != nil {
		t.Fatalf("post-eviction refill differs: %v", err)
	}
}

// TestCanceledContext: a done ctx short-circuits Get and marks every
// unserved batch item; resident hits are still served by the batch's
// hit pass.
func TestCanceledContext(t *testing.T) {
	c := New(0, nil)
	warm := buildChain(t, 6)
	if _, err := c.Get(context.Background(), warm, core.Options{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, buildChain(t, 7), core.Options{}); err != context.Canceled {
		t.Fatalf("Get on canceled ctx: err = %v", err)
	}
	infos, errs := c.GetBatch(ctx, []*scop.SCoP{warm, buildChain(t, 9), buildChain(t, 10)}, core.Options{})
	if errs[0] != nil || infos[0] == nil {
		t.Fatalf("resident hit should survive cancellation: info=%v err=%v", infos[0], errs[0])
	}
	for i := 1; i < 3; i++ {
		if errs[i] != context.Canceled || infos[i] != nil {
			t.Fatalf("item %d: info=%v err=%v, want canceled", i, infos[i], errs[i])
		}
	}
}

// TestErrorsAreNotCached: a rejected SCoP propagates its error and
// leaves no entry behind.
func TestErrorsAreNotCached(t *testing.T) {
	b := scop.NewBuilder("ow")
	b.Array("A", 1).Array("B", 1)
	b.Stmt("S", aff.RectDomain("S", 4)).WritesOverwriting("A", aff.Linear(0, 0))
	b.Stmt("T", aff.RectDomain("T", 4)).
		Writes("B", aff.Var(1, 0)).
		Reads("A", aff.Var(1, 0))
	sc := b.MustBuild()
	c := New(0, nil)
	if _, err := c.Get(context.Background(), sc, core.Options{}); err == nil {
		t.Fatal("overwriting SCoP accepted without AllowOverwrites")
	}
	if c.Len() != 0 {
		t.Fatal("failed detection left a cache entry")
	}
	// The relaxed options accept it — under a different key.
	if _, err := c.Get(context.Background(), sc, core.Options{AllowOverwrites: true}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleflightSharesOneDetection: concurrent misses for one key
// collapse onto a single Detect; every caller gets the same frozen
// Info pointer (same instance ⇒ no rebinding).
func TestSingleflightSharesOneDetection(t *testing.T) {
	c := New(0, nil)
	sc := fuzzscop.Stress()
	const callers = 16
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		mu    sync.Mutex
		seen  = map[*core.Info]bool{}
	)
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer done.Done()
			start.Wait()
			info, err := c.Get(context.Background(), sc, core.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			seen[info] = true
			mu.Unlock()
		}()
	}
	start.Done()
	done.Wait()
	if len(seen) != 1 {
		t.Fatalf("%d distinct Info values served for one key, want 1", len(seen))
	}
	st := c.Stats()
	if st.Hits+st.Misses != callers {
		t.Fatalf("hits %d + misses %d != %d callers", st.Hits, st.Misses, callers)
	}
	if got := st.Misses - st.InflightDedup; got != 1 {
		t.Fatalf("detections led = %d (misses %d, dedup %d), want exactly 1", got, st.Misses, st.InflightDedup)
	}
}
