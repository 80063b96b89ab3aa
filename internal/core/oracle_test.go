package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fuzzscop"
	"repro/internal/isl"
	"repro/internal/kernels"
	"repro/internal/scop"
)

// The per-point implementations detection used before blocks became
// intervals of the sorted domain, kept as references: an E image per
// iteration to list the blocks, and per block a Y lookup, a T⁻¹ lookup
// and an E image to build the Eq. 4 relation.

// pointBlocks lists the blocks of e over domain as (leader, members)
// pairs, one E.Image per iteration.
func pointBlocks(domain *isl.Set, e *isl.Map) (leaders []isl.Vec, members [][]isl.Vec) {
	for _, v := range domain.Elements() {
		leader := e.Image(v)
		if len(leaders) == 0 || !leaders[len(leaders)-1].Eq(leader) {
			leaders = append(leaders, leader)
			members = append(members, nil)
		}
		members[len(members)-1] = append(members[len(members)-1], v)
	}
	return leaders, members
}

// pointDependencyRelation is Eq. 4 by lookups: for each destination
// block, walking back from its last member, the first member whose
// pairwise target block some source iteration enables names the
// integrated source block of the earliest such iteration.
func pointDependencyRelation(pair PipelinePair, eSrc, eDst *isl.Map, leaders []isl.Vec, members [][]isl.Vec) *isl.Map {
	tInv := pair.T.Inverse()
	rel := isl.NewMap(eDst.OutSpace(), eSrc.OutSpace())
	for b, ms := range members {
		for m := len(ms) - 1; m >= 0; m-- {
			ys := pair.Y.Lookup(ms[m])
			if len(ys) == 0 {
				continue
			}
			is := tInv.Lookup(ys[0])
			if len(is) == 0 {
				continue
			}
			rel.Add(leaders[b], eSrc.Image(is[0]))
			break
		}
	}
	return rel
}

// checkAgainstPointOracle holds one detection result against the
// per-point references: equal leaders, equal member lists, and the
// same in-dependencies, relation for relation, in pair order.
func checkAgainstPointOracle(t *testing.T, name string, info *Info) {
	t.Helper()
	type want struct {
		leaders []isl.Vec
		members [][]isl.Vec
		inDeps  []*isl.Map
		srcs    []*scop.Statement
	}
	wants := make([]want, len(info.Stmts))
	for i, si := range info.Stmts {
		wants[i].leaders, wants[i].members = pointBlocks(si.Stmt.Domain, si.E)
	}
	for _, pair := range info.Pairs {
		dst := pair.Dst.Index
		rel := pointDependencyRelation(pair, info.Stmts[pair.Src.Index].E, info.Stmts[dst].E, wants[dst].leaders, wants[dst].members)
		if !rel.IsEmpty() {
			wants[dst].inDeps = append(wants[dst].inDeps, rel)
			wants[dst].srcs = append(wants[dst].srcs, pair.Src)
		}
	}
	for i, si := range info.Stmts {
		w := wants[i]
		if len(si.Blocks) != len(w.leaders) {
			t.Fatalf("%s: %s has %d blocks, oracle %d", name, si.Stmt.Name, len(si.Blocks), len(w.leaders))
		}
		for b := range si.Blocks {
			if !si.Blocks[b].Leader.Eq(w.leaders[b]) {
				t.Fatalf("%s: %s block %d leader %v, oracle %v", name, si.Stmt.Name, b, si.Blocks[b].Leader, w.leaders[b])
			}
			got := si.Members(b)
			if len(got) != len(w.members[b]) {
				t.Fatalf("%s: %s block %d has %d members, oracle %d", name, si.Stmt.Name, b, len(got), len(w.members[b]))
			}
			for k := range got {
				if !got[k].Eq(w.members[b][k]) {
					t.Fatalf("%s: %s block %d member %d is %v, oracle %v", name, si.Stmt.Name, b, k, got[k], w.members[b][k])
				}
			}
		}
		if len(si.InDeps) != len(w.inDeps) {
			t.Fatalf("%s: %s has %d in-deps, oracle %d", name, si.Stmt.Name, len(si.InDeps), len(w.inDeps))
		}
		for j, d := range si.InDeps {
			if d.Src != w.srcs[j] {
				t.Fatalf("%s: %s in-dep %d from %s, oracle %s", name, si.Stmt.Name, j, d.Src.Name, w.srcs[j].Name)
			}
			if got := info.InDepRel(si, d); !got.Equal(w.inDeps[j]) {
				t.Fatalf("%s: %s in-dep on %s\n got %v\nwant %v", name, si.Stmt.Name, d.Src.Name, got, w.inDeps[j])
			}
		}
	}
}

// TestPositionPathMatchesPointOracle holds the position-column blocks
// and Eq. 4 against the per-point references over Table 9, an nmm
// chain and 200 random SCoPs (some with negative and shifted bounds),
// with and without pairwise blocking, overwrites allowed. Pairwise
// blocks can span several pairwise blocks of another pair, which is
// what the walk-back in both implementations is for.
func TestPositionPathMatchesPointOracle(t *testing.T) {
	type input struct {
		name string
		sc   *scop.SCoP
	}
	var inputs []input
	for _, spec := range kernels.Table9 {
		inputs = append(inputs, input{spec.Name, kernels.BuildTable9(spec, 12, 1).SCoP})
	}
	inputs = append(inputs, input{"3mm", kernels.MMChain(3, 6, kernels.MM).SCoP})
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		cfg := fuzzscop.Config{Overwrites: seed%2 == 0, Sink: seed%3 == 0, Shifted: seed%4 == 1}
		inputs = append(inputs, input{fmt.Sprintf("fuzz-%d", seed), fuzzscop.Random(rand.New(rand.NewSource(int64(seed))), cfg)})
	}
	for _, in := range inputs {
		for _, pairwise := range []bool{false, true} {
			opts := Options{PairwiseBlocks: pairwise, AllowOverwrites: true, Workers: 1}
			info, err := Detect(in.sc, opts)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			checkAgainstPointOracle(t, fmt.Sprintf("%s pairwise=%v", in.name, pairwise), info)
		}
	}
}
