// Package core implements the paper's contribution: detection of
// cross-loop pipeline patterns in a SCoP. It computes, per dependent
// statement pair, the pipeline map (§4.1); per statement, the pairwise
// source/target blocking maps (Eq. 2) and their integration into a
// single optimal blocking map E_S (§4.2, Eq. 3); and per pipeline
// block, the dependency relations used to coordinate tasks (§4.3,
// Eq. 4) — the whole of Algorithm 1.
package core

import (
	"errors"
	"fmt"

	"repro/internal/isl"
)

// ErrNonInjectiveWrite reports a source write relation that over-writes
// memory; the transformation's correctness argument requires injective
// writes (§4.1, and §7 lists relaxing this as future work).
var ErrNonInjectiveWrite = errors.New("core: source write relation is not injective")

// PipelineMap computes the pipeline map T_{S,T} between a source
// statement with write relation wr (I → M) and a target statement with
// read relation rd (J → M), following §4.1:
//
//	P  = Wr⁻¹ ∘ Rd            (J → I: the source writes each read needs)
//	D' = { (j, j') : j' ≼ j } over Dom(P)
//	H  = lexmax(P ∘ D')       (J → I: last write needed by j and all
//	                           its predecessors)
//	T  = lexmax(H⁻¹)          (I → J: last target iteration enabled by
//	                           finishing the source through i)
//
// P ∘ D' with the subsequent lexmax is computed as a single
// running-maximum scan (isl.PrefixLexmax), which is equivalent (see
// the property tests) and avoids materializing the quadratic lex-≤
// relation.
func PipelineMap(wr, rd *isl.Map) (*isl.Map, error) {
	return pipelineMap(wr.Inverse(), rd, false)
}

// PipelineMapRelaxed computes the pipeline map without the injective-
// write assumption, the extension §7 lists as future work. A reader of
// cell m must observe m's final value, so it depends on the *last*
// iteration writing m:
//
//	W_last = lexmax(Wr⁻¹)   (M → I: the final writer of each cell)
//	P      = W_last ∘ Rd
//
// followed by the same prefix-lexmax/lexmax construction as
// PipelineMap. Once the final writer of every cell a target prefix
// reads has executed, no later source iteration touches those cells
// again, so the enabling property of §4.1 carries over. For injective
// writes this reduces exactly to PipelineMap.
func PipelineMapRelaxed(wr, rd *isl.Map) (*isl.Map, error) {
	return pipelineMap(wr.Inverse(), rd, true)
}

// pipelineMap is PipelineMap (or, with relaxed set, PipelineMapRelaxed)
// given Wr⁻¹ instead of Wr: detection inverts a statement's write once
// (deps.Graph.WriteInverse) and shares it between every pair the
// statement is the source of. wInv is only read.
func pipelineMap(wInv, rd *isl.Map, relaxed bool) (*isl.Map, error) {
	if wInv.InSpace() != rd.OutSpace() {
		return nil, fmt.Errorf("core: write relation targets %v but read relation targets %v",
			wInv.InSpace(), rd.OutSpace())
	}
	if relaxed {
		wInv = wInv.LexmaxPerIn() // W_last
	} else if !wInv.IsSingleValued() {
		return nil, ErrNonInjectiveWrite
	}
	p := isl.Compose(wInv, rd)
	h := isl.PrefixLexmax(p, p.Domain())
	return h.Inverse().LexmaxPerIn(), nil
}

// BlockingMap partitions domain into pipeline blocks led by the given
// leaders (Eq. 2): every iteration maps to the lexicographically
// smallest leader ≽ it, so each leader is the lexicographic maximum of
// its block. Iterations beyond the last leader form one final block
// led by the lexicographic maximum of the domain (§4.1's tail rule).
// The result is a total, monotone, idempotent map domain → domain.
func BlockingMap(domain, leaders *isl.Set) *isl.Map {
	if leaders.IsEmpty() {
		max, ok := domain.Lexmax()
		if !ok {
			return isl.NewMap(domain.Space(), domain.Space())
		}
		return isl.ConstantMap(domain, domain.Space(), max)
	}
	m := isl.NearestGE(domain, leaders)
	if covered := m.Domain(); covered.Card() != domain.Card() {
		// Tail: iterations past the last leader all join a block led
		// by the domain's lexicographic maximum.
		max, _ := domain.Lexmax()
		rest := domain.Subtract(covered)
		rest.Foreach(func(v isl.Vec) bool {
			m.Add(v, max)
			return true
		})
	}
	return m
}

// SourceBlockingMap returns V_S for a source statement with iteration
// domain domain and pipeline map pm (Eq. 2 with B = Dom(T)).
func SourceBlockingMap(domain *isl.Set, pm *isl.Map) *isl.Map {
	return BlockingMap(domain, pm.Domain())
}

// TargetBlockingMap returns Y_T for a target statement with iteration
// domain domain and pipeline map pm (Eq. 2 with B = Range(T)).
func TargetBlockingMap(domain *isl.Set, pm *isl.Map) *isl.Map {
	return BlockingMap(domain, pm.Range())
}

// IntegrateBlockingMaps computes E_S = lexmin(∪ maps) (Eq. 3): each
// iteration joins the smallest block it belongs to among all pairwise
// blocking maps, which maximizes the number of blocks of different
// statements that can run in parallel (§4.2). With no maps, the whole
// domain becomes a single block led by its lexicographic maximum.
func IntegrateBlockingMaps(domain *isl.Set, maps []*isl.Map) *isl.Map {
	if len(maps) == 0 {
		return BlockingMap(domain, isl.NewSet(domain.Space()))
	}
	u := maps[0]
	for _, m := range maps[1:] {
		u = u.Union(m)
	}
	return u.LexminPerIn()
}
