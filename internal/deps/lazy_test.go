package deps_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/fuzzscop"
	"repro/internal/isl"
	"repro/internal/kernels"
	"repro/internal/scop"
)

// eagerFlow and eagerIntra are the reference relations: what the graph
// computed up front for every cell before its relations became lazy,
// with every inverse taken afresh.

func eagerFlow(src, dst *scop.Statement) *isl.Map {
	if src.Write == nil || dst.Index < src.Index {
		return nil
	}
	var union *isl.Map
	for _, rd := range dst.ReadsFrom(src.Write.Array()) {
		rel := isl.Compose(rd.Inverse(), src.Write.Rel)
		if union == nil {
			union = rel
		} else {
			union = union.Union(rel)
		}
	}
	if union == nil {
		return nil
	}
	if src == dst {
		fwd := isl.NewMap(union.InSpace(), union.OutSpace())
		union.Foreach(func(i, j isl.Vec) bool {
			if i.Cmp(j) < 0 {
				fwd.Add(i, j)
			}
			return true
		})
		union = fwd
	}
	if union.IsEmpty() {
		return nil
	}
	return union
}

func eagerIntra(s *scop.Statement) *isl.Map {
	res := isl.NewMap(s.Domain.Space(), s.Domain.Space())
	if s.Write == nil {
		return res
	}
	w := s.Write.Rel
	add := func(rel *isl.Map) {
		rel.Foreach(func(a, b isl.Vec) bool {
			switch a.Cmp(b) {
			case -1:
				res.Add(a, b)
			case 1:
				res.Add(b, a)
			}
			return true
		})
	}
	add(isl.Compose(w.Inverse(), w))
	for _, rd := range s.ReadsFrom(s.Write.Array()) {
		add(isl.Compose(rd.Inverse(), w))
	}
	return res
}

// checkAgainstEager compares every cell of g, and the emptiness
// answers derived without building a cell, with the reference.
func checkAgainstEager(t *testing.T, name string, sc *scop.SCoP, g *deps.Graph) {
	t.Helper()
	flow, intra := g.Relations()
	for i, src := range sc.Stmts {
		for j, dst := range sc.Stmts {
			want := eagerFlow(src, dst)
			if got := g.DependsOn(dst, src); got != (want != nil) {
				t.Fatalf("%s: DependsOn(%s, %s) = %v, reference flow is %v", name, dst.Name, src.Name, got, want)
			}
			for _, got := range []*isl.Map{g.Flow(src, dst), flow[i][j]} {
				if (got == nil) != (want == nil) || (want != nil && !got.Equal(want)) {
					t.Fatalf("%s: flow %s -> %s is %v, want %v", name, src.Name, dst.Name, got, want)
				}
			}
		}
		want := eagerIntra(src)
		if !intra[i].Equal(want) {
			t.Fatalf("%s: intra(%s) is %v, want %v", name, src.Name, intra[i], want)
		}
	}
}

func lazyInputs() map[string]*scop.SCoP {
	inputs := map[string]*scop.SCoP{
		"listing1": kernels.Listing1(12).SCoP,
		"3mm":      kernels.MMChain(3, 8, kernels.MM).SCoP,
	}
	for _, spec := range kernels.Table9 {
		inputs[spec.Name] = kernels.BuildTable9(spec, 8, 1).SCoP
	}
	for seed := 0; seed < 100; seed++ {
		cfg := fuzzscop.Config{Overwrites: seed%2 == 0, Sink: seed%3 == 0}
		inputs[fmt.Sprintf("fuzz-%d", seed)] = fuzzscop.Random(rand.New(rand.NewSource(int64(seed))), cfg)
	}
	return inputs
}

func TestLazyRelationsEqualEager(t *testing.T) {
	for name, sc := range lazyInputs() {
		checkAgainstEager(t, name, sc, deps.Analyze(sc))
	}
}

// TestLazyGraphConcurrentFirstReaders: a frozen detection result is
// shared as-is (the cache hands one Info to every request), so the
// first demand for a relation can come from many goroutines at once.
// All of them must see one relation per cell, equal to the reference.
func TestLazyGraphConcurrentFirstReaders(t *testing.T) {
	const readers = 8
	for _, name := range []string{"P4", "P7", "P10"} {
		p, err := kernels.Table9Program(name, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		info, err := core.Detect(p.SCoP, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		info.Freeze()
		g, stmts := info.Graph, p.SCoP.Stmts
		n := len(stmts)
		seen := make([][]*isl.Map, readers) // per reader, flow cells by src*n+dst
		var wg sync.WaitGroup
		for r := range seen {
			seen[r] = make([]*isl.Map, n*n)
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for k := range stmts {
					// Readers start at different cells so first demands collide.
					src := stmts[(k+r)%n]
					g.ParallelDims(src)
					g.DistanceVectors(src)
					for _, dst := range stmts {
						seen[r][src.Index*n+dst.Index] = g.Flow(src, dst)
					}
				}
			}(r)
		}
		wg.Wait()
		for r := 1; r < readers; r++ {
			for c := range seen[r] {
				if seen[r][c] != seen[0][c] {
					t.Fatalf("%s: readers 0 and %d hold different relations for flow %d -> %d", name, r, c/n, c%n)
				}
			}
		}
		checkAgainstEager(t, name, p.SCoP, g)
	}
}
