// Package disk is the durable second tier of the detection cache: a
// content-addressed store mapping cache keys (SCoP fingerprint +
// semantic detection options) to gob-encoded frozen *core.Info, so a
// cold process warms from results a previous process — or a previous
// run of this one — already paid ~ms of Algorithm 1 for. It implements
// cache.Tier; wire it behind the in-memory LRU with
// polypipe.WithDiskCache or cache.SetTier.
//
// The encoding is explicit enumeration for relations (pair T/V/Y maps,
// integrated E maps, and the dependence graph's flow/intra relations):
// space names plus the sorted pair list the columnar backend
// enumerates. Blocks and in-dependencies are stored the way detection
// holds them, as positions: each block's (First, Last) interval of its
// statement's sorted domain, and each in-dependency's To column.
// Decoding rebuilds the maps through the same NewMap/Add path Detect
// uses, reads leaders off the requesting SCoP's domains, and rebinds
// statements into it by index, so a loaded Info is bit-identical to a
// freshly detected one (the round-trip test proves it
// digest-for-digest) and independent of which isl backend wrote it.
package disk

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/isl"
	"repro/internal/scop"
)

// codecVersion gates the file format; a reader finding another version
// treats the entry as a miss (the store rewrites it on the next
// detection). Version 2 stores blocks and in-dependencies as positions
// instead of member vectors and relations.
const codecVersion = 2

// encMap is one enumerated relation: its tuple spaces and the pair
// list in enumeration order.
type encMap struct {
	InName  string
	InDim   int
	OutName string
	OutDim  int
	Ins     []isl.Vec
	Outs    []isl.Vec
}

// encPair is one pipeline pair, statements by index.
type encPair struct {
	Src, Dst int
	T, V, Y  encMap
}

// encInDep is one block-level in-dependency family (core.InDep).
type encInDep struct {
	Src int
	To  []int32
}

// encStmt is the per-statement result. Block b spans positions
// First[b]..Last[b] of the statement's sorted domain and is led by its
// last member.
type encStmt struct {
	Index       int
	E           encMap
	First, Last []int32
	InDeps      []encInDep
}

// encGraph carries the dependence graph's relations. Flow is sparse
// (only non-nil cells); Intra is indexed by statement.
type encGraph struct {
	Stmts int
	Flow  []encFlowCell
	Intra []encMap
}

type encFlowCell struct {
	Src, Dst int
	Rel      encMap
}

// encInfo is the on-disk form of one frozen detection result.
type encInfo struct {
	Version int
	// Fingerprint pins the SCoP content the entry was detected from;
	// Load cross-checks it against the requesting SCoP so a hash-named
	// file can never bind to the wrong program.
	Fingerprint string
	Pairs       []encPair
	Stmts       []encStmt
	Graph       encGraph
}

func encodeMap(m *isl.Map) encMap {
	in, out := m.InSpace(), m.OutSpace()
	e := encMap{InName: in.Name, InDim: in.Dim, OutName: out.Name, OutDim: out.Dim}
	m.Foreach(func(i, o isl.Vec) bool {
		e.Ins = append(e.Ins, i.Clone())
		e.Outs = append(e.Outs, o.Clone())
		return true
	})
	return e
}

func decodeMap(e encMap) (*isl.Map, error) {
	if len(e.Ins) != len(e.Outs) {
		return nil, fmt.Errorf("disk: relation %s->%s has %d ins but %d outs",
			e.InName, e.OutName, len(e.Ins), len(e.Outs))
	}
	m := isl.NewMap(isl.NewSpace(e.InName, e.InDim), isl.NewSpace(e.OutName, e.OutDim))
	for i := range e.Ins {
		m.Add(e.Ins[i], e.Outs[i])
	}
	return m, nil
}

// encode flattens a frozen Info for storage. The SCoP itself is not
// stored — the fingerprint addresses it, and Load rebinds into the
// requester's instance.
func encode(info *core.Info) (*encInfo, error) {
	out := &encInfo{Version: codecVersion, Fingerprint: info.SCoP.Fingerprint().String()}
	for _, p := range info.Pairs {
		out.Pairs = append(out.Pairs, encPair{
			Src: p.Src.Index, Dst: p.Dst.Index,
			T: encodeMap(p.T), V: encodeMap(p.V), Y: encodeMap(p.Y),
		})
	}
	for _, si := range info.Stmts {
		if si == nil {
			return nil, fmt.Errorf("disk: statement slot without StmtInfo")
		}
		es := encStmt{
			Index: si.Stmt.Index,
			E:     encodeMap(si.E),
			First: make([]int32, len(si.Blocks)),
			Last:  make([]int32, len(si.Blocks)),
		}
		elems := si.Stmt.Domain.Elements()
		for b, blk := range si.Blocks {
			if !blk.Leader.Eq(elems[blk.Last]) {
				return nil, fmt.Errorf("disk: statement %s block %d is led by %v, not its last member", si.Stmt.Name, b, blk.Leader)
			}
			es.First[b], es.Last[b] = blk.First, blk.Last
		}
		for _, d := range si.InDeps {
			es.InDeps = append(es.InDeps, encInDep{Src: d.Src.Index, To: d.To})
		}
		out.Stmts = append(out.Stmts, es)
	}
	if info.Graph != nil {
		flow, intra := info.Graph.Relations()
		out.Graph.Stmts = len(flow)
		for i, row := range flow {
			for j, m := range row {
				if m != nil {
					out.Graph.Flow = append(out.Graph.Flow, encFlowCell{Src: i, Dst: j, Rel: encodeMap(m)})
				}
			}
		}
		for _, m := range intra {
			var em encMap
			if m != nil {
				em = encodeMap(m)
			}
			out.Graph.Intra = append(out.Graph.Intra, em)
		}
	}
	return out, nil
}

// decode rebuilds a detection result bound to sc. The caller owns the
// fingerprint check; decode validates only structure.
func decode(e *encInfo, sc *scop.SCoP) (*core.Info, error) {
	if e.Version != codecVersion {
		return nil, fmt.Errorf("disk: entry version %d, want %d", e.Version, codecVersion)
	}
	stmtAt := func(i int) (*scop.Statement, error) {
		if i < 0 || i >= len(sc.Stmts) {
			return nil, fmt.Errorf("disk: statement index %d out of range (%d statements)", i, len(sc.Stmts))
		}
		return sc.Stmts[i], nil
	}
	info := &core.Info{SCoP: sc}
	for _, p := range e.Pairs {
		src, err := stmtAt(p.Src)
		if err != nil {
			return nil, err
		}
		dst, err := stmtAt(p.Dst)
		if err != nil {
			return nil, err
		}
		t, err := decodeMap(p.T)
		if err != nil {
			return nil, err
		}
		v, err := decodeMap(p.V)
		if err != nil {
			return nil, err
		}
		y, err := decodeMap(p.Y)
		if err != nil {
			return nil, err
		}
		info.Pairs = append(info.Pairs, core.PipelinePair{Src: src, Dst: dst, T: t, V: v, Y: y})
	}
	if len(e.Stmts) != len(sc.Stmts) {
		return nil, fmt.Errorf("disk: entry has %d statements, scop has %d", len(e.Stmts), len(sc.Stmts))
	}
	info.Stmts = make([]*core.StmtInfo, len(sc.Stmts))
	for _, es := range e.Stmts {
		st, err := stmtAt(es.Index)
		if err != nil {
			return nil, err
		}
		em, err := decodeMap(es.E)
		if err != nil {
			return nil, err
		}
		if len(es.First) != len(es.Last) {
			return nil, fmt.Errorf("disk: statement %d has %d block starts but %d ends", es.Index, len(es.First), len(es.Last))
		}
		elems := st.Domain.Elements()
		blocks := make([]core.Block, len(es.First))
		for b := range blocks {
			first, last := es.First[b], es.Last[b]
			if first < 0 || first > last || int(last) >= len(elems) {
				return nil, fmt.Errorf("disk: statement %d block %d spans %d..%d of %d points", es.Index, b, first, last, len(elems))
			}
			blocks[b] = core.Block{Leader: elems[last], First: first, Last: last}
		}
		var inDeps []core.InDep
		for _, d := range es.InDeps {
			dsrc, err := stmtAt(d.Src)
			if err != nil {
				return nil, err
			}
			if len(d.To) != len(blocks) {
				return nil, fmt.Errorf("disk: statement %d in-dependency on %d has %d entries for %d blocks", es.Index, d.Src, len(d.To), len(blocks))
			}
			inDeps = append(inDeps, core.InDep{Src: dsrc, To: d.To})
		}
		info.Stmts[es.Index] = &core.StmtInfo{Stmt: st, E: em, Blocks: blocks, InDeps: inDeps}
	}
	// Source positions are checked once every statement has its blocks.
	if slices.Contains(info.Stmts, nil) {
		return nil, fmt.Errorf("disk: entry lacks a statement")
	}
	for _, si := range info.Stmts {
		for _, d := range si.InDeps {
			n := int32(len(info.Stmts[d.Src.Index].Blocks))
			for _, q := range d.To {
				if q < -1 || q >= n {
					return nil, fmt.Errorf("disk: statement %s waits for block %d of %s (%d blocks)", si.Stmt.Name, q, d.Src.Name, n)
				}
			}
		}
	}
	if e.Graph.Stmts != len(sc.Stmts) {
		return nil, fmt.Errorf("disk: entry graph has %d statements, scop has %d", e.Graph.Stmts, len(sc.Stmts))
	}
	flow := make([][]*isl.Map, len(sc.Stmts))
	for i := range flow {
		flow[i] = make([]*isl.Map, len(sc.Stmts))
	}
	for _, cell := range e.Graph.Flow {
		if _, err := stmtAt(cell.Src); err != nil {
			return nil, err
		}
		if _, err := stmtAt(cell.Dst); err != nil {
			return nil, err
		}
		m, err := decodeMap(cell.Rel)
		if err != nil {
			return nil, err
		}
		flow[cell.Src][cell.Dst] = m
	}
	if len(e.Graph.Intra) != len(sc.Stmts) {
		return nil, fmt.Errorf("disk: entry has %d intra relations, scop has %d", len(e.Graph.Intra), len(sc.Stmts))
	}
	intra := make([]*isl.Map, len(sc.Stmts))
	for i, em := range e.Graph.Intra {
		if em.InDim == 0 && em.InName == "" {
			continue // statement had a nil intra relation
		}
		m, err := decodeMap(em)
		if err != nil {
			return nil, err
		}
		intra[i] = m
	}
	g, err := deps.RebuildGraph(sc, flow, intra)
	if err != nil {
		return nil, err
	}
	info.Graph = g
	info.Freeze()
	return info, nil
}
