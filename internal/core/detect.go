package core

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/deps"
	"repro/internal/isl"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/scop"
)

// Options tunes pipeline detection.
type Options struct {
	// MinBlockIters, when > 1, groups blocks into tasks of at least
	// this many iterations (§7). It is read by the plan (codegen), not
	// by detection, which always returns the blocks of Eq. 3.
	MinBlockIters int
	// PairwiseBlocks disables the Eq. 3 integration and instead blocks
	// each statement by only its first pairwise blocking map (ablation
	// of the §4.2 design choice). Programs whose statements take part
	// in a single pipeline map are unaffected.
	PairwiseBlocks bool
	// AllowOverwrites enables the relaxed last-writer pipeline maps
	// (PipelineMapRelaxed) for statements whose write access is
	// declared MayOverwrite — the §7 extension beyond the paper's
	// injective-write assumption.
	AllowOverwrites bool
	// Workers bounds the detection worker pool: the per-pair pipeline-
	// map phase, the per-statement blocking integration, and the
	// per-pair dependency-relation phase all fan out over this many
	// goroutines. 0 means GOMAXPROCS; 1 forces the serial path. Results
	// are bit-identical across widths (see docs/PERFORMANCE.md).
	Workers int
	// Obs, when non-nil, receives per-phase detection timings
	// ("detect.dependence_analysis", "detect.pipeline_maps",
	// "detect.blocking_integration", "detect.dependency_relations") and
	// per-SCoP counts ("detect.statements", "detect.pairs",
	// "detect.blocks", "detect.dep_edges"). Detection behaviour is
	// unchanged; see docs/OBSERVABILITY.md.
	Obs *obs.Recorder
	// Backend selects the detection algebra. "" and "explicit" run
	// Algorithm 1 over the enumerated relations of the compiled isl
	// backend. BackendSymbolic ("symbolic") evaluates the closed-form
	// constraint algebra of internal/isl/sym first — cost independent
	// of domain size — and falls back to the explicit path whenever the
	// SCoP or options land outside its fragment, so the result is
	// always bit-identical to the explicit one. The backend actually
	// used is recorded as a "detect.backend.*" obs counter.
	Backend string
}

// PipelinePair records the pipeline map between one dependent pair of
// statements, plus the pairwise blocking maps derived from it.
type PipelinePair struct {
	Src, Dst *scop.Statement
	T        *isl.Map // pipeline map: I_src → I_dst
	V        *isl.Map // source blocking map of Src (total over I_src)
	Y        *isl.Map // target blocking map of Dst (total over I_dst)
}

// InDep is one in-dependency family of a statement's blocks (Q_S,
// Eq. 4): To[b] is the position in the source statement's Blocks of
// the block that block b must wait for, or -1 when block b does not
// depend on Src at all. Info.InDepRel gives the relation form, block
// leader → source block leader.
type InDep struct {
	Src *scop.Statement
	To  []int32
}

// Edges returns the number of blocks that wait on Src.
func (d *InDep) Edges() int {
	n := 0
	for _, q := range d.To {
		if q >= 0 {
			n++
		}
	}
	return n
}

// Block is one pipeline block (one task). E_S sends every iteration to
// the nearest leader ≽ it (§4.2), so a block is a contiguous run of its
// statement's lexicographically sorted domain: positions First..Last of
// Stmt.Domain.Elements(). Leader identifies the block and is its
// lexicographic maximum.
type Block struct {
	Leader      isl.Vec
	First, Last int32
}

// Len returns the block's iteration count.
func (b *Block) Len() int { return int(b.Last-b.First) + 1 }

// StmtInfo is the per-statement result of detection: the integrated
// blocking map E_S, the blocks in execution order, and the block-level
// in-dependencies. The out-dependency Q'_S is the identity on
// Range(E_S) and is represented implicitly by each block's leader.
type StmtInfo struct {
	Stmt   *scop.Statement
	E      *isl.Map
	Blocks []Block
	InDeps []InDep
}

// Members returns the iterations of block b in execution order: a
// shared, read-only subslice of the statement's sorted domain.
func (si *StmtInfo) Members(b int) []isl.Vec {
	blk := &si.Blocks[b]
	return si.Stmt.Domain.Elements()[blk.First : blk.Last+1]
}

// BlockIndex returns the position of the block led by leader in
// execution order, or -1. Blocks are in ascending leader order, so this
// is a binary search.
func (si *StmtInfo) BlockIndex(leader isl.Vec) int {
	i := sort.Search(len(si.Blocks), func(k int) bool { return si.Blocks[k].Leader.Cmp(leader) >= 0 })
	if i < len(si.Blocks) && si.Blocks[i].Leader.Eq(leader) {
		return i
	}
	return -1
}

// Info is the result of Algorithm 1 for a whole SCoP.
type Info struct {
	SCoP  *scop.SCoP
	Graph *deps.Graph
	Pairs []PipelinePair
	Stmts []*StmtInfo // indexed by statement Index
}

// Stmt returns the StmtInfo of the named statement, or nil.
func (in *Info) Stmt(name string) *StmtInfo {
	for _, si := range in.Stmts {
		if si.Stmt.Name == name {
			return si
		}
	}
	return nil
}

// TotalBlocks returns the number of tasks the transformed program will
// create.
func (in *Info) TotalBlocks() int {
	n := 0
	for _, si := range in.Stmts {
		n += len(si.Blocks)
	}
	return n
}

// InDepRel returns the relation form of in-dependency d of si: each
// dependent block's leader → the leader of the source block it waits
// for (Eq. 4, normalized through the source's own E so it names a real
// task). Lowering reads d.To; the relation is built on demand for
// reports and digests.
func (in *Info) InDepRel(si *StmtInfo, d InDep) *isl.Map {
	src := in.Stmts[d.Src.Index]
	rel := isl.NewMap(si.E.OutSpace(), src.E.OutSpace())
	for b, q := range d.To {
		if q >= 0 {
			rel.Add(si.Blocks[b].Leader, src.Blocks[q].Leader)
		}
	}
	return rel
}

// Freeze materializes the lazy ordering caches of every relation the
// result holds — statement domains, pair T/V/Y maps, and integrated E
// maps — and returns in (the dependence graph freezes each of its
// relations as it computes them). A frozen
// Info is safe for any number of concurrent readers (lookups,
// lowering, execution) with no further synchronization, which is the
// representation the detection cache stores (internal/cache).
func (in *Info) Freeze() *Info {
	for _, s := range in.SCoP.Stmts {
		s.Domain.Freeze()
	}
	for i := range in.Pairs {
		p := &in.Pairs[i]
		p.T.Freeze()
		p.V.Freeze()
		p.Y.Freeze()
	}
	for _, si := range in.Stmts {
		if si == nil {
			continue
		}
		si.E.Freeze()
	}
	return in
}

// Detect runs Algorithm 1 on sc: it computes pipeline maps for every
// flow-dependent statement pair, derives and integrates blocking maps,
// and attaches block-level dependency relations. The SCoP must be free
// of cross-statement anti/output hazards (each nest writes its own
// array); Detect rejects it otherwise.
//
// The three map-construction phases fan their independent jobs
// (per dependent pair, per statement, per pair again) over a pool of
// Options.Workers goroutines. Jobs write index-addressed result slots
// and the merges walk those slots in enumeration order, so the result
// — including the error returned on a rejected SCoP — is bit-identical
// to the Workers=1 serial path.
func Detect(sc *scop.SCoP, opts Options) (*Info, error) {
	switch opts.Backend {
	case "", "explicit":
	case BackendSymbolic:
		if si, err := DetectSymbolic(sc, opts); err == nil {
			opts.Obs.Count("detect.backend.symbolic", 1)
			return si.Materialize(), nil
		}
		// Outside the symbolic fragment (or structurally invalid):
		// the explicit path below recomputes from scratch and owns the
		// error reporting, so selecting the backend never changes
		// results or diagnostics.
		opts.Obs.Count("detect.backend.symbolic_fallback", 1)
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownBackend, opts.Backend)
	}
	opts.Obs.Count("detect.backend."+isl.BackendName, 1)
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotPipelinable, err)
	}
	if opts.Obs != nil {
		// Allocation accounting brackets the whole detection: the
		// delta of the runtime's cumulative heap total (cheap but
		// process-wide, hence gated on an observer being attached) and
		// the isl scratch pool's reuse counter, which together show
		// how much of the relation algebra ran out of pooled buffers.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		startBytes := ms.TotalAlloc
		_, startReuse := isl.ScratchStats()
		defer func() {
			runtime.ReadMemStats(&ms)
			opts.Obs.Count("detect.bytes_alloc", int64(ms.TotalAlloc-startBytes))
			_, reuse := isl.ScratchStats()
			opts.Obs.Count("detect.scratch_reuse", int64(reuse-startReuse))
		}()
	}
	workers := par.Workers(opts.Workers)
	opts.Obs.SetGauge("detect.parallel_workers", int64(workers))
	stop := opts.Obs.Phase("detect.dependence_analysis")
	if err := deps.CrossHazards(sc); err != nil {
		stop()
		return nil, fmt.Errorf("%w: %w", ErrNotPipelinable, err)
	}
	g := deps.Analyze(sc)
	stop()
	opts.Obs.Count("detect.statements", int64(len(sc.Stmts)))
	info := &Info{SCoP: sc, Graph: g}

	// Statement domains are shared across the per-pair jobs below
	// (every pair touching a statement reads its domain); freezing them
	// materializes the lazy ordering caches so concurrent readers never
	// mutate shared state.
	for _, s := range sc.Stmts {
		s.Domain.Freeze()
	}

	// Pairwise pipeline maps and blocking maps (Algorithm 1, lines 1–7).
	// Pair enumeration is serial (it fixes the deterministic job order);
	// the expensive map constructions run one job per dependent pair.
	stop = opts.Obs.Phase("detect.pipeline_maps")
	type pairJob struct {
		src, dst *scop.Statement
		rd       *isl.Map
	}
	var jobs []pairJob
	for _, src := range sc.Stmts {
		if src.Write == nil {
			continue
		}
		for _, dst := range g.Targets(src) {
			if rd := unionReads(dst, src.Write.Array()); rd != nil {
				jobs = append(jobs, pairJob{src: src, dst: dst, rd: rd})
			}
		}
	}
	type pairResult struct {
		pair PipelinePair
		ok   bool
		err  error
	}
	results := make([]pairResult, len(jobs))
	par.For(len(jobs), workers, func(i int) {
		j := jobs[i]
		if j.src.Write.MayOverwrite && !opts.AllowOverwrites {
			results[i].err = fmt.Errorf("%w: statement %q has a non-injective write; set Options.AllowOverwrites to use the relaxed extension", ErrNotPipelinable, j.src.Name)
			return
		}
		t, err := pipelineMap(g.WriteInverse(j.src), j.rd, j.src.Write.MayOverwrite)
		if err != nil {
			results[i].err = fmt.Errorf("core: pipeline map %s -> %s: %w", j.src.Name, j.dst.Name, err)
			return
		}
		if t.IsEmpty() {
			return
		}
		results[i] = pairResult{
			pair: PipelinePair{
				Src: j.src,
				Dst: j.dst,
				T:   t,
				V:   SourceBlockingMap(j.src.Domain, t),
				Y:   TargetBlockingMap(j.dst.Domain, t),
			},
			ok: true,
		}
	})
	blockingMaps := make([][]*isl.Map, len(sc.Stmts))
	for i := range results {
		if err := results[i].err; err != nil {
			stop()
			return nil, err // first error in enumeration order, as serially
		}
		if !results[i].ok {
			continue
		}
		pair := results[i].pair
		info.Pairs = append(info.Pairs, pair)
		blockingMaps[pair.Src.Index] = append(blockingMaps[pair.Src.Index], pair.V)
		blockingMaps[pair.Dst.Index] = append(blockingMaps[pair.Dst.Index], pair.Y)
	}
	stop()
	opts.Obs.Count("detect.pairs", int64(len(info.Pairs)))

	// Integrated blocking maps E_S (lines 8–9) and blocks, one job per
	// statement. Slots are indexed by statement Index (Validate
	// guarantees Stmts[i].Index == i).
	stop = opts.Obs.Phase("detect.blocking_integration")
	info.Stmts = make([]*StmtInfo, len(sc.Stmts))
	par.For(len(sc.Stmts), workers, func(i int) {
		s := sc.Stmts[i]
		maps := blockingMaps[s.Index]
		if opts.PairwiseBlocks && len(maps) > 1 {
			maps = maps[:1]
		}
		e := IntegrateBlockingMaps(s.Domain, maps)
		info.Stmts[s.Index] = &StmtInfo{Stmt: s, E: e, Blocks: materializeBlocks(s.Domain, e)}
	})
	stop()
	opts.Obs.Count("detect.blocks", int64(info.TotalBlocks()))

	// Block-level in-dependencies Q_S (lines 10–12, Eq. 4), one job per
	// pair. Blocks are only read; each pair's T and Y are owned by
	// exactly one job here.
	stop = opts.Obs.Phase("detect.dependency_relations")
	tos := make([][]int32, len(info.Pairs))
	par.For(len(info.Pairs), workers, func(i int) {
		pair := info.Pairs[i]
		tos[i] = dependencyTargets(pair, info.Stmts[pair.Src.Index], info.Stmts[pair.Dst.Index])
	})
	depEdges := 0
	for i, pair := range info.Pairs {
		d := InDep{Src: pair.Src, To: tos[i]}
		if n := d.Edges(); n > 0 {
			dstInfo := info.Stmts[pair.Dst.Index]
			dstInfo.InDeps = append(dstInfo.InDeps, d)
			depEdges += n
		}
	}
	stop()
	opts.Obs.Count("detect.dep_edges", int64(depEdges))
	return info, nil
}

// unionReads returns the union of dst's read relations from the named
// array, or nil when dst never reads it.
func unionReads(dst *scop.Statement, array string) *isl.Map {
	rels := dst.ReadsFrom(array)
	if len(rels) == 0 {
		return nil
	}
	u := rels[0]
	for _, r := range rels[1:] {
		u = u.Union(r)
	}
	return u
}

// materializeBlocks lists the blocks of e over domain in execution
// (lexicographic leader) order: one scan of e's position column, with a
// block boundary wherever the leader changes.
func materializeBlocks(domain *isl.Set, e *isl.Map) []Block {
	lead := e.PositionColumn(domain, domain)
	n := 0
	for k, p := range lead {
		if p < 0 {
			panic(fmt.Sprintf("core: blocking map %s -> %s is not total over the domain", e.InSpace(), e.OutSpace()))
		}
		if k == 0 || p != lead[k-1] {
			n++
		}
	}
	elems := domain.Elements()
	blocks := make([]Block, 0, n)
	for k, p := range lead {
		if k == 0 || p != lead[k-1] {
			blocks = append(blocks, Block{Leader: elems[p], First: int32(k)})
		}
		blocks[len(blocks)-1].Last = int32(k)
	}
	return blocks
}

// dependencyTargets implements Eq. 4 for one pipeline pair: each block
// of the destination names the source block whose completion enables
// every member of the block:
//
//	y  = Y(j)            the pairwise target block containing member j
//	i  = lexmin(T⁻¹(y))  the earliest source iteration enabling y
//	q  = E_src(i)        the integrated source block containing i
//
// All three run on domain positions: Y and T are read as position
// columns, and one ascending scan over the source positions finds, for
// each y, the first source position landing on it together with the
// source block whose interval holds that position.
//
// With the integrated (Eq. 3) blocking, every member of a block shares
// one pairwise block (pairwise leaders are a subset of the integrated
// leaders), so checking the block leader alone suffices; a
// PairwiseBlocks block can span several pairwise blocks of another
// pair, including the dependence-free tail beyond Range(T).
// Requirements grow
// monotonically with the member, so the strongest one comes from the
// last member whose pairwise block is enabled by some source
// iteration; members beyond Range(T) read nothing from this source.
// Walking back from the block's last member, a pairwise block that
// already failed is skipped. Blocks none of whose members depend on
// the source get -1.
func dependencyTargets(pair PipelinePair, src, dst *StmtInfo) []int32 {
	dstDom := dst.Stmt.Domain
	y := pair.Y.PositionColumn(dstDom, dstDom)
	t := pair.T.PositionColumn(src.Stmt.Domain, dstDom)
	// need[y]: the source block holding lexmin(T⁻¹(y)), or -1.
	need := make([]int32, len(y))
	for p := range need {
		need[p] = -1
	}
	q := int32(0)
	for i, p := range t {
		for src.Blocks[q].Last < int32(i) {
			q++
		}
		if p >= 0 && need[p] < 0 {
			need[p] = q
		}
	}
	to := make([]int32, len(dst.Blocks))
	for b := range dst.Blocks {
		to[b] = -1
		failed := int32(-1)
		for m := dst.Blocks[b].Last; m >= dst.Blocks[b].First; m-- {
			yp := y[m]
			if yp < 0 || yp == failed {
				continue
			}
			if to[b] = need[yp]; to[b] >= 0 {
				break
			}
			failed = yp // dependence-free tail: try an earlier member
		}
	}
	return to
}
