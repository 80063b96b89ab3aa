package deps

import (
	"fmt"

	"repro/internal/isl"
	"repro/internal/scop"
)

// Relation export/import for serialized detection results
// (internal/cache/disk). A Graph is pure derived data — every relation
// is computable from the SCoP — but recomputing it costs the dependence
// analysis the disk tier exists to skip, so a decoder rebuilds the
// graph from its stored relations instead.

// Relations returns the graph's relations in export form: flow[i][j]
// is the flow-dependence relation from statement i to statement j (nil
// when independent), intra[i] the intra-statement conflict relation of
// statement i. Exporting asks for every relation, so it computes the
// ones nobody has demanded yet. The maps are the graph's own (frozen);
// treat them as read-only.
func (g *Graph) Relations() (flow [][]*isl.Map, intra []*isl.Map) {
	stmts := g.scop.Stmts
	flow = make([][]*isl.Map, len(stmts))
	intra = make([]*isl.Map, len(stmts))
	for i, src := range stmts {
		flow[i] = make([]*isl.Map, len(stmts))
		for j, dst := range stmts {
			flow[i][j] = g.Flow(src, dst)
		}
		intra[i] = g.intraOf(src)
	}
	return flow, intra
}

// RebuildGraph reassembles a Graph over sc from exported relations.
// The slices must be shaped like Relations' result for a SCoP with the
// same statement count; the maps are adopted (and frozen), not copied.
func RebuildGraph(sc *scop.SCoP, flow [][]*isl.Map, intra []*isl.Map) (*Graph, error) {
	n := len(sc.Stmts)
	if len(flow) != n || len(intra) != n {
		return nil, fmt.Errorf("deps: rebuild: %d statements but %d flow rows / %d intra entries",
			n, len(flow), len(intra))
	}
	for i, row := range flow {
		if len(row) != n {
			return nil, fmt.Errorf("deps: rebuild: flow row %d has %d entries, want %d", i, len(row), n)
		}
	}
	g := Analyze(sc)
	adopt := func(c *cell, m *isl.Map) {
		if m != nil {
			m.Freeze()
		}
		c.get(func() *isl.Map { return m })
	}
	for i := range flow {
		for j, m := range flow[i] {
			adopt(&g.flow[i][j], m)
		}
		if intra[i] != nil { // a missing conflict relation stays lazy
			adopt(&g.intra[i], intra[i])
		}
	}
	return g, nil
}
