package disk

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isl"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/scop"
)

// infoDigest folds every observable component of a detection result
// into a 128-bit content digest — the same fold the cross-backend
// golden tests use (internal/core), so "equal digests" here means the
// same thing it means there: bit-identical detection results.
func infoDigest(in *core.Info) string {
	d := isl.NewDigest()
	d.WriteInt(len(in.Pairs))
	for _, p := range in.Pairs {
		d.WriteInt(p.Src.Index)
		d.WriteString(p.Src.Name)
		d.WriteInt(p.Dst.Index)
		d.WriteString(p.Dst.Name)
		p.T.HashInto(d)
		p.V.HashInto(d)
		p.Y.HashInto(d)
	}
	d.WriteInt(len(in.Stmts))
	for _, si := range in.Stmts {
		d.WriteInt(si.Stmt.Index)
		d.WriteString(si.Stmt.Name)
		si.E.HashInto(d)
		d.WriteInt(len(si.Blocks))
		for b := range si.Blocks {
			d.WriteVec(si.Blocks[b].Leader)
			d.WriteInt(si.Blocks[b].Len())
			for _, v := range si.Members(b) {
				d.WriteVec(v)
			}
		}
		d.WriteInt(len(si.InDeps))
		for _, dep := range si.InDeps {
			d.WriteInt(dep.Src.Index)
			d.WriteString(dep.Src.Name)
			in.InDepRel(si, dep).HashInto(d)
		}
	}
	lo, hi := d.Sum128()
	return fmt.Sprintf("%016x%016x", hi, lo)
}

func testPrograms(t *testing.T) []struct {
	name string
	sc   *scop.SCoP
	opts core.Options
} {
	t.Helper()
	var out []struct {
		name string
		sc   *scop.SCoP
		opts core.Options
	}
	for _, name := range []string{"P4", "P7", "P10"} {
		p, err := kernels.Table9Program(name, 12, 2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, struct {
			name string
			sc   *scop.SCoP
			opts core.Options
		}{name, p.SCoP, core.Options{}})
	}
	out = append(out, struct {
		name string
		sc   *scop.SCoP
		opts core.Options
	}{"listing3_pairwise", kernels.Listing3(16).SCoP, core.Options{PairwiseBlocks: true}})
	out = append(out, struct {
		name string
		sc   *scop.SCoP
		opts core.Options
	}{"nmm", kernels.MMChain(3, 8, kernels.MM).SCoP, core.Options{}})
	return out
}

// TestDiskRoundTripBitIdentical is the cross-backend-style contract of
// the disk tier: Detect → Store → Load into a separately built SCoP of
// the same content must rebind to an Info that is structurally equal
// AND digest-identical to a fresh detection on that instance.
func TestDiskRoundTripBitIdentical(t *testing.T) {
	store, err := New(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range testPrograms(t) {
		want, err := core.Detect(tc.sc, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want.Freeze()
		key := cache.KeyFor(tc.sc, tc.opts)
		store.Store(key, want)

		got, ok := store.Load(key, tc.sc)
		if !ok {
			t.Fatalf("%s: stored entry did not load", tc.name)
		}
		if err := core.EqualInfo(want, got); err != nil {
			t.Fatalf("%s: loaded Info differs: %v", tc.name, err)
		}
		if dw, dg := infoDigest(want), infoDigest(got); dw != dg {
			t.Fatalf("%s: digest %s vs %s", tc.name, dw, dg)
		}
		if got.SCoP != tc.sc {
			t.Fatalf("%s: loaded Info not bound to the requesting SCoP", tc.name)
		}
		// The dependence graph is stored in full although detection no
		// longer computes it: Store demands every relation, Load adopts
		// them, and they equal what the live graph computes on demand.
		wf, wi := want.Graph.Relations()
		gf, gi := got.Graph.Relations()
		for i := range wf {
			for j := range wf[i] {
				if (wf[i][j] == nil) != (gf[i][j] == nil) || (wf[i][j] != nil && !wf[i][j].Equal(gf[i][j])) {
					t.Fatalf("%s: loaded flow relation %d -> %d differs", tc.name, i, j)
				}
			}
			if !wi[i].Equal(gi[i]) {
				t.Fatalf("%s: loaded intra relation %d differs", tc.name, i)
			}
		}
	}
}

// TestDiskRebindAcrossInstances: an entry written from one SCoP
// instance loads into a second, separately built instance of the same
// content, bound to the second instance's statements.
func TestDiskRebindAcrossInstances(t *testing.T) {
	store, err := New(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a := kernels.Listing3(16).SCoP
	b := kernels.Listing3(16).SCoP
	if a == b {
		t.Fatal("want two instances")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("instances should share content")
	}
	info, err := core.Detect(a, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	info.Freeze()
	store.Store(cache.KeyFor(a, core.Options{}), info)

	got, ok := store.Load(cache.KeyFor(b, core.Options{}), b)
	if !ok {
		t.Fatal("no load into second instance")
	}
	if got.SCoP != b {
		t.Fatal("loaded Info bound to the wrong instance")
	}
	for i, si := range got.Stmts {
		if si.Stmt != b.Stmts[i] {
			t.Fatalf("stmt %d not rebound to instance b", i)
		}
	}
	fresh, err := core.Detect(b, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.EqualInfo(fresh, got); err != nil {
		t.Fatalf("rebound Info differs from fresh detection: %v", err)
	}
	if infoDigest(fresh) != infoDigest(got) {
		t.Fatal("rebound Info digest differs from fresh detection")
	}
}

// TestDiskOptionVariantsCoexist: the same SCoP under different
// semantic options lands in distinct files and loads distinctly.
func TestDiskOptionVariantsCoexist(t *testing.T) {
	store, err := New(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := kernels.Listing3(16).SCoP
	plain, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairwise, err := core.Detect(sc, core.Options{PairwiseBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	store.Store(cache.KeyFor(sc, core.Options{}), plain.Freeze())
	store.Store(cache.KeyFor(sc, core.Options{PairwiseBlocks: true}), pairwise.Freeze())
	if store.Len() != 2 {
		t.Fatalf("store has %d entries, want 2", store.Len())
	}
	got, ok := store.Load(cache.KeyFor(sc, core.Options{PairwiseBlocks: true}), sc)
	if !ok {
		t.Fatal("pairwise entry did not load")
	}
	if err := core.EqualInfo(pairwise, got); err != nil {
		t.Fatalf("pairwise round trip: %v", err)
	}
}

// TestDiskGranularitiesShareOneFile: detection never reads
// MinBlockIters, so a coarse and a fine request address one file, and
// either loads what the other stored.
func TestDiskGranularitiesShareOneFile(t *testing.T) {
	store, err := New(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := kernels.Listing3(16).SCoP
	fine, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store.Store(cache.KeyFor(sc, core.Options{MinBlockIters: 8}), fine.Freeze())
	store.Store(cache.KeyFor(sc, core.Options{}), fine)
	if store.Len() != 1 {
		t.Fatalf("store has %d entries, want 1", store.Len())
	}
	got, ok := store.Load(cache.KeyFor(sc, core.Options{}), sc)
	if !ok {
		t.Fatal("fine request missed the coarse request's entry")
	}
	if err := core.EqualInfo(fine, got); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

// TestDiskCorruptEntryIsMiss: truncated or garbage files degrade to
// misses and count on cache.disk.errors.
func TestDiskCorruptEntryIsMiss(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := New(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	sc := kernels.Listing1(8).SCoP
	key := cache.KeyFor(sc, core.Options{})
	info, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store.Store(key, info.Freeze())

	// Truncate the entry file mid-way.
	files, _ := filepath.Glob(filepath.Join(store.Dir(), "*.gob"))
	if len(files) != 1 {
		t.Fatalf("want 1 entry file, got %d", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Load(key, sc); ok {
		t.Fatal("corrupt entry loaded")
	}
	if got := reg.Snapshot().Counter("cache.disk.errors"); got == 0 {
		t.Fatal("corruption not counted on cache.disk.errors")
	}
}

// TestTieredCacheWarmsFromDisk: a fresh in-memory cache with the disk
// tier serves a previously stored SCoP without re-running Detect
// (cache.disk.hits goes up, and the result matches a fresh detection).
func TestTieredCacheWarmsFromDisk(t *testing.T) {
	dir := t.TempDir()
	reg1 := obs.NewRegistry()
	store1, err := New(dir, reg1)
	if err != nil {
		t.Fatal(err)
	}
	c1 := cache.New(0, reg1)
	c1.SetTier(store1)
	sc1 := kernels.Listing3(16).SCoP
	want, err := c1.Get(nil, sc1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if store1.Len() != 1 {
		t.Fatalf("write-through left %d entries, want 1", store1.Len())
	}

	// "Cold start": new registry, new memory cache, same directory.
	reg2 := obs.NewRegistry()
	store2, err := New(dir, reg2)
	if err != nil {
		t.Fatal(err)
	}
	c2 := cache.New(0, reg2)
	c2.SetTier(store2)
	sc2 := kernels.Listing3(16).SCoP // separate instance, same content
	got, err := c2.Get(nil, sc2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg2.Snapshot()
	if snap.Counter("cache.disk.hits") != 1 {
		t.Fatalf("cache.disk.hits = %d, want 1", snap.Counter("cache.disk.hits"))
	}
	if err := core.EqualInfo(want, got); err != nil {
		t.Fatalf("disk-warmed result differs: %v", err)
	}
	if infoDigest(want) != infoDigest(got) {
		t.Fatal("disk-warmed digest differs")
	}
	// Second request on the warmed process is a pure memory hit.
	if _, err := c2.Get(nil, sc2, core.Options{}); err != nil {
		t.Fatal(err)
	}
	snap = reg2.Snapshot()
	if snap.Counter("cache.hits") != 1 {
		t.Fatalf("cache.hits = %d, want 1", snap.Counter("cache.hits"))
	}
	if snap.Counter("cache.disk.hits") != 1 {
		t.Fatal("memory hit consulted the disk tier")
	}
}

// The version-1 entry layout: blocks as member-vector lists and
// in-dependencies as enumerated relations. Kept to measure what version
// 2 saves and to check that such entries now count as misses.
type (
	v1Block struct {
		Leader  isl.Vec
		Members []isl.Vec
	}
	v1InDep struct {
		Src int
		Rel encMap
	}
	v1Stmt struct {
		Index  int
		E      encMap
		Blocks []v1Block
		InDeps []v1InDep
	}
	v1Info struct {
		Version     int
		Fingerprint string
		Pairs       []encPair
		Stmts       []v1Stmt
		Graph       encGraph
	}
)

// encodeV1 renders info in the version-1 layout.
func encodeV1(t *testing.T, info *core.Info) *v1Info {
	t.Helper()
	e, err := encode(info)
	if err != nil {
		t.Fatal(err)
	}
	out := &v1Info{Version: 1, Fingerprint: e.Fingerprint, Pairs: e.Pairs, Graph: e.Graph}
	for _, si := range info.Stmts {
		es := v1Stmt{Index: si.Stmt.Index, E: encodeMap(si.E)}
		for b := range si.Blocks {
			es.Blocks = append(es.Blocks, v1Block{Leader: si.Blocks[b].Leader, Members: si.Members(b)})
		}
		for _, d := range si.InDeps {
			es.InDeps = append(es.InDeps, v1InDep{Src: d.Src.Index, Rel: encodeMap(info.InDepRel(si, d))})
		}
		out.Stmts = append(out.Stmts, es)
	}
	return out
}

func gobSize(t *testing.T, v any) int {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// TestDiskEntrySizeV2 logs the entry size of Table 9 P10 at n=32 in
// both layouts; storing intervals and source-block positions must not
// be the larger of the two.
func TestDiskEntrySizeV2(t *testing.T) {
	p, err := kernels.Table9Program("P10", 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := core.Detect(p.SCoP, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := encode(info)
	if err != nil {
		t.Fatal(err)
	}
	v2, v1 := gobSize(t, e), gobSize(t, encodeV1(t, info))
	t.Logf("P10 n=32 (%d blocks): entry %d bytes in version 2, %d in version 1 (%.0f%%)",
		info.TotalBlocks(), v2, v1, 100*float64(v2)/float64(v1))
	if v2 >= v1 {
		t.Errorf("version 2 entry (%d bytes) is not smaller than version 1 (%d)", v2, v1)
	}
}

// TestDiskVersion1EntryIsMiss: an entry written by the previous codec
// decodes but fails the version gate, so it counts as a miss and an
// error, and the next Store replaces it.
func TestDiskVersion1EntryIsMiss(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := New(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	sc := kernels.Listing3(16).SCoP
	key := cache.KeyFor(sc, core.Options{})
	info, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(store.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(encodeV1(t, info.Freeze())); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, ok := store.Load(key, sc); ok {
		t.Fatal("version-1 entry loaded")
	}
	if got := reg.Snapshot().Counter("cache.disk.errors"); got != 1 {
		t.Fatalf("cache.disk.errors = %d, want 1", got)
	}
	store.Store(key, info)
	got, ok := store.Load(key, sc)
	if !ok {
		t.Fatal("rewritten entry did not load")
	}
	if err := core.EqualInfo(info, got); err != nil {
		t.Fatal(err)
	}
}
