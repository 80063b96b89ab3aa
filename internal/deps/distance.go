package deps

import (
	"fmt"
	"strings"

	"repro/internal/isl"
	"repro/internal/scop"
)

// Direction classifies one dimension of a dependence distance, the
// classic polyhedral direction-vector entry.
type Direction int

// Direction values per dimension: '<' (positive distance), '=' (zero),
// '>' (negative), '*' (varies).
const (
	DirEq Direction = iota
	DirLt
	DirGt
	DirStar
)

// String renders the conventional symbol.
func (d Direction) String() string {
	switch d {
	case DirEq:
		return "="
	case DirLt:
		return "<"
	case DirGt:
		return ">"
	case DirStar:
		return "*"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// DistanceSummary aggregates the dependence distances of one
// statement's intra-nest conflicts.
type DistanceSummary struct {
	// Distances holds the distinct distance vectors (j − i for
	// conflict pairs i ≺ j), lexicographically sorted.
	Distances []isl.Vec
	// Directions is the per-dimension direction summary over all
	// distances.
	Directions []Direction
	// Uniform reports whether exactly one distance vector occurs
	// (a uniform dependence, the easy case for tiling/pipelining).
	Uniform bool
}

// String renders like "(<, =) uniform{[1, 0]}".
func (ds DistanceSummary) String() string {
	dirs := make([]string, len(ds.Directions))
	for i, d := range ds.Directions {
		dirs[i] = d.String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "(%s)", strings.Join(dirs, ", "))
	if ds.Uniform && len(ds.Distances) == 1 {
		fmt.Fprintf(&b, " uniform{%v}", ds.Distances[0])
	}
	return b.String()
}

// DistanceVectors summarizes the intra-statement dependence distances
// of s: every conflict pair (i ≺ j) contributes the vector j − i.
// The summary is empty for fully parallel nests.
func (g *Graph) DistanceVectors(s *scop.Statement) DistanceSummary {
	depth := s.Depth()
	deltas := isl.Deltas(g.intraOf(s))
	var ds DistanceSummary
	if deltas.IsEmpty() {
		return ds
	}
	ds.Distances = deltas.Elements()
	ds.Uniform = len(ds.Distances) == 1
	ds.Directions = make([]Direction, depth)
	for k := 0; k < depth; k++ {
		ds.Directions[k] = dirOf(ds.Distances, k)
	}
	return ds
}

func dirOf(distances []isl.Vec, k int) Direction {
	var pos, neg, zero bool
	for _, d := range distances {
		switch {
		case d[k] > 0:
			pos = true
		case d[k] < 0:
			neg = true
		default:
			zero = true
		}
	}
	switch {
	case pos && !neg && !zero:
		return DirLt
	case neg && !pos && !zero:
		return DirGt
	case zero && !pos && !neg:
		return DirEq
	default:
		return DirStar
	}
}

// CrossDistances returns the distinct distance vectors of the flow
// dependence from src to dst when the two statements have the same
// nest depth, or nil otherwise. A single uniform distance is the
// precondition the pipelined-multithreading approach of Razanajato et
// al. requires; our transformation does not need it, but reporting it
// makes the comparison measurable.
func (g *Graph) CrossDistances(src, dst *scop.Statement) []isl.Vec {
	rel := g.Flow(src, dst)
	if rel == nil || src.Depth() != dst.Depth() {
		return nil
	}
	return isl.Deltas(rel).Elements()
}
