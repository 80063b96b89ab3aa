package core

import (
	"errors"
	"fmt"

	"repro/internal/deps"
	"repro/internal/isl"
	"repro/internal/isl/sym"
	"repro/internal/par"
	"repro/internal/scop"
)

// The symbolic detection backend: Algorithm 1 evaluated on closed-form
// constraint representations (internal/isl/sym) instead of enumerated
// relations, so its cost depends on the number of constraints and
// statements, never on domain volume. It covers the rectangular
// per-dimension monomial fragment — constant loop bounds, writes
// A[x_d + b_d], reads A[⌊(a_d·x_d + b_d)/c_d⌋] with the strictness
// conditions below — which includes the paper's Figure 4 and every
// Table 9 program. Anything outside the fragment returns an error
// wrapping ErrSymbolicUnsupported and Detect falls back to the
// explicit path, so selecting the backend never changes results, only
// the cost of computing them.
//
// Why the fragment gives closed forms, per phase:
//
//   - P = Wr⁻¹∘Rd is per-dimension y ↦ r_d(y_d) − b_d with
//     r_d(y) = ⌊(a·y+b)/c⌋, and Dom(P) is a box (one interval per
//     dimension). On dimensions before the last, a ≥ c keeps r_d
//     strictly increasing, so P is lex-monotone over Dom(P) and the
//     prefix-lexmax H equals P itself.
//   - T = lexmax(H⁻¹) inverts per dimension: with c | a the image is a
//     stride-a/c lattice and T is exact division; with a | c (last
//     dimension only) T maps each collapsed class to its class
//     maximum, a stride-c/a lattice whose top element clamps to the
//     last domain iteration. Dom(T) and Range(T) are therefore strided
//     boxes (at most two for Range(T)).
//   - Blocking maps are nearest-≽ maps over those lattices
//     (sym.NearestGETotal), integration is pointwise lexicographic
//     minimum (Eq. 3), and Range(E) is exactly the union of the
//     pairwise leader lattices plus the domain maximum, so block
//     counts come from inclusion–exclusion, not enumeration.
//   - For y ∈ Range(T), T⁻¹(y) = P(y), so the Eq. 4 relation is the
//     composition E_src ∘ P ∘ Y restricted to the destination leaders
//     lex-≼ ymax = lexmax Range(T), and its cardinality is a counting
//     query.

// BackendSymbolic is the Options.Backend value selecting symbolic
// detection with transparent fallback.
const BackendSymbolic = "symbolic"

// ErrSymbolicUnsupported reports a SCoP (or options) outside the
// symbolic backend's fragment. Detect treats any DetectSymbolic error
// as "use the explicit path", so the error is informational.
var ErrSymbolicUnsupported = errors.New("core: scop outside the symbolic backend's fragment")

func unsupportedf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrSymbolicUnsupported}, args...)...)
}

// symPieceCap bounds the piece count of any folded piecewise map; a
// SCoP whose integration exceeds it falls back to the explicit path.
const symPieceCap = 512

// symRead is a recognized per-dimension read access:
// coordinate d reads ⌊(A[d]·x_d + B[d]) / C[d]⌋.
type symRead struct {
	A, B, C []int64
}

// SymStmt is the per-statement symbolic detection result.
type SymStmt struct {
	Stmt *scop.Statement
	// Dom is the rectangular iteration domain, one stride-1 interval
	// per dimension.
	Dom sym.Box
	// DomMax is the domain's lexicographic maximum.
	DomMax []int64
	// writeOff holds the write access offsets (A[x_d + writeOff[d]]);
	// nil for pure-read statements.
	writeOff []int64
	// E is the integrated blocking map of Eq. 3 in closed form, total
	// over Dom.
	E sym.PW
	// Leaders is Range(E): the pairwise leader lattices plus DomMax.
	Leaders sym.Region
	// NumBlocks is the number of pipeline blocks, |Range(E)|.
	NumBlocks int64
}

// SymPair is the per-dependent-pair symbolic result.
type SymPair struct {
	Src, Dst *scop.Statement
	// TDom is Dom(T), a strided box in the source iteration space.
	TDom sym.Box
	// T is the pipeline map in closed form, defined on TDom.
	T sym.PW
	// P is Wr⁻¹∘Rd in closed form, total on the target space.
	P sym.PW
	// V and Y are the totalized source/target blocking maps (Eq. 2).
	V, Y sym.PW
	// YLeaders is Range(T), the target-side leader region.
	YLeaders sym.Region
	// YMax is lexmax Range(T).
	YMax []int64
	// Rel is the Eq. 4 dependency relation in closed form: defined on
	// the destination leaders lex-≼ YMax, mapping each to the source
	// leader that must complete first.
	Rel sym.PW
	// DepEdges is the relation's cardinality.
	DepEdges int64
}

// SymInfo is the closed-form result of symbolic detection. It holds
// no per-iteration data; Materialize expands it into the explicit Info
// the rest of the system (lowering, execution, cache) consumes.
type SymInfo struct {
	SCoP    *scop.SCoP
	Pairs   []SymPair
	Stmts   []*SymStmt
	workers int
}

// TotalBlocks returns the number of tasks without materializing them.
func (si *SymInfo) TotalBlocks() int64 {
	n := int64(0)
	for _, s := range si.Stmts {
		n += s.NumBlocks
	}
	return n
}

// TotalDepEdges returns the number of block-dependency edges without
// materializing the relations.
func (si *SymInfo) TotalDepEdges() int64 {
	n := int64(0)
	for i := range si.Pairs {
		n += si.Pairs[i].DepEdges
	}
	return n
}

func floorDiv64(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv64(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func lexCmp64(a, b []int64) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// symStmtOf recognizes the statement's domain and write access, or
// reports why the fragment excludes it.
func symStmtOf(s *scop.Statement) (*SymStmt, error) {
	if s.Spec == nil {
		return nil, unsupportedf("statement %q has no symbolic domain spec", s.Name)
	}
	lo, hi, ok := s.Spec.RectBounds()
	if !ok {
		return nil, unsupportedf("statement %q domain is not a constant rectangle", s.Name)
	}
	d := len(lo)
	if d == 0 {
		return nil, unsupportedf("statement %q has a zero-dimensional domain", s.Name)
	}
	box := make(sym.Box, d)
	dommax := make([]int64, d)
	for i := range box {
		box[i] = sym.Lat1{Lo: int64(lo[i]), Hi: int64(hi[i]) - 1, Stride: 1}
		dommax[i] = int64(hi[i]) - 1
	}
	// Guard against a Spec that diverged from the enumerated Domain
	// (hand-built SCoPs): the cardinalities must agree. Card is O(1).
	if int64(s.Domain.Card()) != box.Count() {
		return nil, unsupportedf("statement %q domain spec disagrees with its enumerated domain", s.Name)
	}
	ss := &SymStmt{Stmt: s, Dom: box, DomMax: dommax}
	if s.Write != nil {
		if s.Write.MayOverwrite {
			return nil, unsupportedf("statement %q write may overwrite", s.Name)
		}
		exprs := s.Write.Access.Exprs
		if len(exprs) != d {
			return nil, unsupportedf("statement %q write arity %d != depth %d", s.Name, len(exprs), d)
		}
		ss.writeOff = make([]int64, d)
		for i, e := range exprs {
			a, b, c, ok := e.Mono1(i)
			if !ok || a != 1 || c != 1 {
				return nil, unsupportedf("statement %q write dimension %d is not x+const", s.Name, i)
			}
			ss.writeOff[i] = int64(b)
		}
	}
	return ss, nil
}

// symReadOf recognizes a read access against the reader's depth.
func symReadOf(s *scop.Statement, acc *scop.AccessRef) (symRead, error) {
	d := s.Depth()
	exprs := acc.Access.Exprs
	if len(exprs) != d {
		return symRead{}, unsupportedf("statement %q read of %q arity %d != depth %d",
			s.Name, acc.Array(), len(exprs), d)
	}
	r := symRead{A: make([]int64, d), B: make([]int64, d), C: make([]int64, d)}
	for i, e := range exprs {
		a, b, c, ok := e.Mono1(i)
		if !ok || a < 0 {
			return symRead{}, unsupportedf("statement %q read of %q dimension %d is outside the monomial fragment",
				s.Name, acc.Array(), i)
		}
		r.A[i], r.B[i], r.C[i] = int64(a), int64(b), int64(c)
	}
	return r, nil
}

// readHitInterval returns the sub-interval of [ylo, yhi] whose image
// under y ↦ ⌊(a·y+b)/c⌋ lies in [wlo, whi]. a must be ≥ 0.
func readHitInterval(a, b, c, ylo, yhi, wlo, whi int64) (int64, int64, bool) {
	if a == 0 {
		v := floorDiv64(b, c)
		if v < wlo || v > whi {
			return 0, 0, false
		}
		return ylo, yhi, ylo <= yhi
	}
	lo := max64(ylo, ceilDiv64(c*wlo-b, a))
	hi := min64(yhi, floorDiv64(c*(whi+1)-1-b, a))
	return lo, hi, lo <= hi
}

// symCrossHazards replicates deps.CrossHazards on the closed forms:
// same traversal order, same error strings, exact emptiness tests via
// interval arithmetic.
func symCrossHazards(stmts []*SymStmt) error {
	for _, late := range stmts {
		ls := late.Stmt
		if ls.Write == nil {
			continue
		}
		array := ls.Write.Array()
		for _, early := range stmts {
			es := early.Stmt
			if es.Index >= ls.Index {
				break
			}
			if es.Write != nil && es.Write.Array() == array {
				overlap := true
				for d := range late.Dom {
					if len(early.Dom) != len(late.Dom) {
						overlap = false
						break
					}
					elo := early.Dom[d].Lo + early.writeOff[d]
					ehi := early.Dom[d].Hi + early.writeOff[d]
					llo := late.Dom[d].Lo + late.writeOff[d]
					lhi := late.Dom[d].Hi + late.writeOff[d]
					if max64(elo, llo) > min64(ehi, lhi) {
						overlap = false
						break
					}
				}
				if overlap {
					return fmt.Errorf("deps: output hazard: statements %q and %q both write array %q",
						es.Name, ls.Name, array)
				}
			}
			for ri := range es.Reads {
				acc := &es.Reads[ri]
				if acc.Array() != array {
					continue
				}
				rd, err := symReadOf(es, acc)
				if err != nil {
					return err
				}
				if len(rd.A) != len(late.Dom) {
					continue // dimension mismatch: disjoint index spaces
				}
				hit := true
				for d := range late.Dom {
					_, _, ok := readHitInterval(rd.A[d], rd.B[d], rd.C[d],
						early.Dom[d].Lo, early.Dom[d].Hi,
						late.Dom[d].Lo+late.writeOff[d], late.Dom[d].Hi+late.writeOff[d])
					if !ok {
						hit = false
						break
					}
				}
				if hit {
					return fmt.Errorf("deps: anti hazard: statement %q overwrites array %q read by earlier statement %q",
						ls.Name, array, es.Name)
				}
			}
		}
	}
	return nil
}

// buildSymPair computes the closed forms of one dependent pair:
// pipeline map T with its domain and range lattices, the totalized
// blocking maps V and Y, and P for the later Eq. 4 composition.
// ok=false reports an empty pipeline map (no pair), err a fragment
// violation.
func buildSymPair(src, dst *SymStmt, rd symRead) (SymPair, bool, error) {
	d := len(dst.Dom)
	if len(src.Dom) != d {
		return SymPair{}, false, unsupportedf("pair %s -> %s: depth mismatch %d vs %d",
			src.Stmt.Name, dst.Stmt.Name, len(src.Dom), d)
	}
	tdom := make(sym.Box, d)
	tForms := make([]sym.Form, d)
	pForms := make([]sym.Form, d)
	yPrefix := make(sym.Box, d) // per-dim main leader lattice
	var lastPoint int64         // collapsed last dimension's clamped top
	lastSplit := false

	for i := 0; i < d; i++ {
		a, b, c := rd.A[i], rd.B[i], rd.C[i]
		if a < 1 {
			return SymPair{}, false, unsupportedf("pair %s -> %s: read dimension %d has zero stride",
				src.Stmt.Name, dst.Stmt.Name, i)
		}
		bw := src.writeOff[i]
		wlo := src.Dom[i].Lo + bw
		whi := src.Dom[i].Hi + bw
		ylo, yhi, ok := readHitInterval(a, b, c, dst.Dom[i].Lo, dst.Dom[i].Hi, wlo, whi)
		if !ok {
			return SymPair{}, false, nil // empty pipeline map: no pair
		}
		// P per dimension: y ↦ ⌊(a·y+b)/c⌋ − bw.
		if c == 1 {
			pForms[i] = sym.AffineForm(a, b-bw)
		} else {
			pForms[i] = sym.RatForm(a, b, c).Then(sym.Stage{A: 1, B: -bw, C: 1})
		}
		switch {
		case a%c == 0 && a >= c:
			// Strided-injective: r(y) = s·y + ⌊b/c⌋ exactly.
			s := a / c
			fl := floorDiv64(b, c)
			tdom[i] = sym.Lat1{Lo: s*ylo + fl - bw, Hi: s*yhi + fl - bw, Stride: s}
			tForms[i] = sym.Form{Stages: []sym.Stage{{A: 1, B: bw - fl, C: s}}}
			yPrefix[i] = sym.Lat1{Lo: ylo, Hi: yhi, Stride: 1}
		case c%a == 0 && a < c && i == d-1:
			// Collapsing last dimension: classes of size c/a share a
			// value; T maps each class to its maximum, clamped to the
			// last covered iteration.
			k := c / a
			rm0 := floorDiv64(a*ylo+b, c)
			rm1 := floorDiv64(a*yhi+b, c)
			tdom[i] = sym.Lat1{Lo: rm0 - bw, Hi: rm1 - bw, Stride: 1}
			tForms[i] = sym.Form{Stages: []sym.Stage{
				{A: c, B: c*bw + c - 1 - b, C: a, ClampHi: true, Hi: yhi},
			}}
			h := floorDiv64(c-1-b, a)
			switch {
			case k*rm1+h == yhi:
				// Top class ends exactly at the domain edge: one lattice.
				yPrefix[i] = sym.Lat1{Lo: k*rm0 + h, Hi: k*rm1 + h, Stride: k}
			case rm0 == rm1:
				// Single class: its clamped maximum is the only leader.
				yPrefix[i] = sym.Point1(yhi)
			default:
				yPrefix[i] = sym.Lat1{Lo: k*rm0 + h, Hi: k*(rm1-1) + h, Stride: k}
				lastPoint = yhi
				lastSplit = true
			}
		default:
			return SymPair{}, false, unsupportedf(
				"pair %s -> %s: read dimension %d (a=%d c=%d) breaks lex monotonicity",
				src.Stmt.Name, dst.Stmt.Name, i, a, c)
		}
	}

	yLeaders := sym.Region{yPrefix}
	if lastSplit {
		top := make(sym.Box, d)
		copy(top, yPrefix[:d-1])
		top[d-1] = sym.Point1(lastPoint)
		yLeaders = append(yLeaders, top)
	}
	ymax, _ := yLeaders.Lexmax()

	v := sym.PrunePW(sym.NearestGETotal(tdom, src.DomMax), src.Dom)
	y := sym.PrunePW(sym.NearestGETotal(yLeaders[0], dst.DomMax), dst.Dom)
	for _, box := range yLeaders[1:] {
		y = sym.PrunePW(sym.LexMinPW(y, sym.NearestGETotal(box, dst.DomMax)), dst.Dom)
	}

	return SymPair{
		Src:      src.Stmt,
		Dst:      dst.Stmt,
		TDom:     tdom,
		T:        sym.SinglePW(tForms),
		P:        sym.SinglePW(pForms),
		V:        v,
		Y:        y,
		YLeaders: yLeaders,
		YMax:     ymax,
	}, true, nil
}

// DetectSymbolic runs Algorithm 1 entirely on closed forms. Its cost
// is a function of statement count, pair count, and constraint/piece
// counts — never of domain volume. The result answers the aggregate
// questions (block counts, dependency-edge counts, the maps
// themselves as evaluable forms) directly and expands to the explicit
// Info via Materialize. SCoPs outside the fragment return an error
// wrapping ErrSymbolicUnsupported.
func DetectSymbolic(sc *scop.SCoP, opts Options) (*SymInfo, error) {
	if err := sc.ValidateShallow(); err != nil {
		return nil, err
	}
	info := &SymInfo{SCoP: sc, workers: opts.Workers}
	info.Stmts = make([]*SymStmt, len(sc.Stmts))
	for i, s := range sc.Stmts {
		ss, err := symStmtOf(s)
		if err != nil {
			return nil, err
		}
		info.Stmts[i] = ss
	}

	stop := opts.Obs.Phase("detect.dependence_analysis")
	err := symCrossHazards(info.Stmts)
	stop()
	if err != nil {
		if errors.Is(err, ErrSymbolicUnsupported) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %w", ErrNotPipelinable, err)
	}
	opts.Obs.Count("detect.statements", int64(len(sc.Stmts)))

	// Pairwise pipeline maps (Algorithm 1, lines 1–7), in the explicit
	// path's enumeration order: sources in program order, targets in
	// program order after them.
	stop = opts.Obs.Phase("detect.pipeline_maps")
	type blockingEntry struct {
		leaders sym.Region
		pw      sym.PW
	}
	blocking := make([][]blockingEntry, len(sc.Stmts))
	for si, src := range info.Stmts {
		if src.Stmt.Write == nil {
			continue
		}
		array := src.Stmt.Write.Array()
		for di := si + 1; di < len(info.Stmts); di++ {
			dst := info.Stmts[di]
			var reads []*scop.AccessRef
			for ri := range dst.Stmt.Reads {
				if dst.Stmt.Reads[ri].Array() == array {
					reads = append(reads, &dst.Stmt.Reads[ri])
				}
			}
			if len(reads) == 0 {
				continue
			}
			if len(reads) > 1 {
				stop()
				return nil, unsupportedf("statement %q reads array %q through %d accesses",
					dst.Stmt.Name, array, len(reads))
			}
			rd, err := symReadOf(dst.Stmt, reads[0])
			if err != nil {
				stop()
				return nil, err
			}
			pair, ok, err := buildSymPair(src, dst, rd)
			if err != nil {
				stop()
				return nil, err
			}
			if !ok {
				continue
			}
			info.Pairs = append(info.Pairs, pair)
			blocking[si] = append(blocking[si], blockingEntry{leaders: sym.Region{pair.TDom}, pw: pair.V})
			blocking[di] = append(blocking[di], blockingEntry{leaders: pair.YLeaders, pw: pair.Y})
		}
	}
	stop()
	opts.Obs.Count("detect.pairs", int64(len(info.Pairs)))

	// Integrated blocking maps E_S (lines 8–9, Eq. 3) and block counts.
	stop = opts.Obs.Phase("detect.blocking_integration")
	for i, ss := range info.Stmts {
		entries := blocking[i]
		if opts.PairwiseBlocks && len(entries) > 1 {
			entries = entries[:1]
		}
		if len(entries) == 0 {
			ss.E = sym.ConstPW(ss.DomMax)
			ss.Leaders = sym.Region{pointBox(ss.DomMax)}
			ss.NumBlocks = 1
			continue
		}
		e := entries[0].pw
		leaders := append(sym.Region{}, entries[0].leaders...)
		for _, ent := range entries[1:] {
			e = sym.PrunePW(sym.LexMinPW(e, ent.pw), ss.Dom)
			if len(e.Pieces) > symPieceCap {
				stop()
				return nil, unsupportedf("statement %q integrated blocking map exceeds %d pieces",
					ss.Stmt.Name, symPieceCap)
			}
			leaders = append(leaders, ent.leaders...)
		}
		leaders = append(leaders, pointBox(ss.DomMax))
		if len(leaders) > 12 {
			stop()
			return nil, unsupportedf("statement %q leader region has %d boxes", ss.Stmt.Name, len(leaders))
		}
		ss.E = e
		ss.Leaders = leaders
		ss.NumBlocks = leaders.Count()
	}
	stop()
	opts.Obs.Count("detect.blocks", info.TotalBlocks())

	// Block-level dependency relations (lines 10–12, Eq. 4): for every
	// destination leader L ≼ ymax, the enabling source block is
	// E_src(P(Y(L))) — for leaders past ymax every member sits in the
	// dependence-free tail, so the relation omits them.
	stop = opts.Obs.Phase("detect.dependency_relations")
	for i := range info.Pairs {
		pair := &info.Pairs[i]
		src := info.Stmts[pair.Src.Index]
		dst := info.Stmts[pair.Dst.Index]
		pair.Rel = sym.ComposePW(src.E, sym.ComposePW(pair.P, pair.Y))
		pair.DepEdges = dst.Leaders.CountLexLE(pair.YMax)
	}
	stop()
	opts.Obs.Count("detect.dep_edges", info.TotalDepEdges())
	return info, nil
}

func pointBox(v []int64) sym.Box {
	b := make(sym.Box, len(v))
	for i, x := range v {
		b[i] = sym.Point1(x)
	}
	return b
}

func toVec(v []int64) isl.Vec {
	out := make(isl.Vec, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

func toI64(v isl.Vec) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = int64(x)
	}
	return out
}

func evalPW(p sym.PW, v []int64) []int64 {
	out, ok := p.Eval(v)
	if !ok {
		panic(fmt.Sprintf("core: symbolic map not total at %v", v))
	}
	return out
}

// materializePW tabulates a total symbolic self-map over a statement
// domain into an explicit relation.
func materializePW(domain *isl.Set, p sym.PW) *isl.Map {
	m := isl.NewMap(domain.Space(), domain.Space())
	for _, v := range domain.Elements() {
		m.Add(v, toVec(evalPW(p, toI64(v))))
	}
	return m
}

// Materialize expands the closed forms into the explicit Info that
// lowering, execution, and the cache consume: every map is tabulated
// over its domain, blocks are listed in execution order, and the
// dependence graph is recomputed exactly as the explicit path does.
// The result is bit-identical to Detect's on the same SCoP and
// options (the cross-backend golden digests enforce this).
func (si *SymInfo) Materialize() *Info {
	sc := si.SCoP
	workers := par.Workers(si.workers)
	info := &Info{SCoP: sc, Graph: deps.Analyze(sc)}
	for _, s := range sc.Stmts {
		s.Domain.Freeze()
	}

	info.Pairs = make([]PipelinePair, len(si.Pairs))
	par.For(len(si.Pairs), workers, func(i int) {
		sp := &si.Pairs[i]
		srcDom := sc.Stmts[sp.Src.Index].Domain
		dstDom := sc.Stmts[sp.Dst.Index].Domain
		t := isl.NewMap(srcDom.Space(), dstDom.Space())
		sym.Region{sp.TDom}.ForeachLex(func(v []int64) bool {
			t.Add(toVec(v), toVec(evalPW(sp.T, v)))
			return true
		})
		info.Pairs[i] = PipelinePair{
			Src: sp.Src,
			Dst: sp.Dst,
			T:   t,
			V:   materializePW(srcDom, sp.V),
			Y:   materializePW(dstDom, sp.Y),
		}
	})

	info.Stmts = make([]*StmtInfo, len(sc.Stmts))
	par.For(len(sc.Stmts), workers, func(i int) {
		ss := si.Stmts[i]
		e := materializePW(ss.Stmt.Domain, ss.E)
		info.Stmts[i] = &StmtInfo{Stmt: ss.Stmt, E: e, Blocks: materializeBlocks(ss.Stmt.Domain, e)}
	})

	// In-dependencies attach in pair order, like the explicit merge: the
	// closed form names a source leader for every destination leader up
	// to YMax; leaders past it sit in the dependence-free tail.
	for i := range si.Pairs {
		sp := &si.Pairs[i]
		if sp.DepEdges == 0 {
			continue
		}
		dstInfo, srcInfo := info.Stmts[sp.Dst.Index], info.Stmts[sp.Src.Index]
		to := make([]int32, len(dstInfo.Blocks))
		for b := range dstInfo.Blocks {
			to[b] = -1
			if v := toI64(dstInfo.Blocks[b].Leader); lexCmp64(v, sp.YMax) <= 0 {
				q := toVec(evalPW(sp.Rel, v))
				if to[b] = int32(srcInfo.BlockIndex(q)); to[b] < 0 {
					panic(fmt.Sprintf("core: symbolic in-dependency of %s names %s%v, not a block leader", sp.Dst.Name, sp.Src.Name, q))
				}
			}
		}
		dstInfo.InDeps = append(dstInfo.InDeps, InDep{Src: sp.Src, To: to})
	}
	return info
}
