package ir

import (
	"fmt"
	"strings"

	"repro/internal/isl"
)

// Pass is one IR-to-IR transformation. Passes run in the canonical
// pipeline order (the order Passes returns) regardless of how a
// subset was selected, so a subset's Applied list and the emitted
// header read the same whatever its spelling. No pass changes the
// tasks or their DAG: those are the chain program's.
type Pass struct {
	Name string
	Desc string
	run  func(p *Program, opt Options)
}

// Passes returns the full pipeline in canonical order.
func Passes() []Pass {
	return []Pass{
		{
			Name: "specialize",
			Desc: "inline statement bodies and iterate blocks as run-length segments instead of guarded domain scans",
			run:  specializePass,
		},
		{
			Name: "narrow",
			Desc: "shrink array storage to the accessed box and seed dead/read-only arrays once",
			run:  narrowPass,
		},
	}
}

// ParsePasses resolves a -passes style selector: "" / "all" selects
// the whole pipeline, "none" selects nothing, otherwise a
// comma-separated subset of pass names (returned in canonical order).
// A subset that names no pass (for example ",") is an error, like an
// unknown name: "none" is the one spelling of the empty pipeline.
func ParsePasses(spec string) ([]Pass, error) {
	switch strings.TrimSpace(spec) {
	case "", "all", "default":
		return Passes(), nil
	case "none":
		return nil, nil
	}
	var known []string
	for _, ps := range Passes() {
		known = append(known, ps.Name)
	}
	have := fmt.Sprintf("(have %s, plus \"all\" and \"none\")", strings.Join(known, ", "))
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, k := range known {
			if k == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("ir: unknown pass %q %s", name, have)
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("ir: pass selector %q names no pass %s", spec, have)
	}
	var out []Pass
	for _, ps := range Passes() {
		if want[ps.Name] {
			out = append(out, ps)
		}
	}
	return out, nil
}

// RunPasses applies the given passes to p in canonical order,
// recording one "ir.pass.<name>" phase per pass plus the ir.* effect
// metrics on opt.Obs.
func RunPasses(p *Program, passes []Pass, opt Options) {
	for _, ps := range passes {
		stop := opt.Obs.Phase("ir.pass." + ps.Name)
		ps.run(p, opt)
		stop()
		p.Applied = append(p.Applied, ps.Name)
	}
}

// specializePass converts every task from "scan the full domain behind
// a lexicographic interval guard" to run-length segments covering
// exactly its members — cut from the task's interval of the
// statement's sorted points — and marks every statement body for
// inlining: the emitter then produces straight-line per-task loops
// with no per-iteration dispatch, guard, or bounds re-derivation.
func specializePass(p *Program, opt Options) {
	segs := 0
	for i := range p.Tasks {
		t := &p.Tasks[i]
		t.Segs = segments(p.Members(&t.Unit))
		segs += len(t.Segs)
	}
	for i := range p.Stmts {
		p.Stmts[i].Inline = true
	}
	opt.Obs.Count("ir.bodies_specialized", int64(len(p.Stmts)))
	opt.Obs.Count("ir.segments", int64(segs))
}

// segments coalesces an interval of sorted points into runs of
// consecutive innermost-dimension points.
func segments(members []isl.Vec) []Seg {
	var segs []Seg
	for k := 0; k < len(members); {
		start := members[k]
		n := 1
		d := len(start) - 1
		if d >= 0 {
			for k+n < len(members) {
				next := members[k+n]
				if next[d] != start[d]+n {
					break
				}
				same := true
				for o := 0; o < d; o++ {
					if next[o] != start[o] {
						same = false
						break
					}
				}
				if !same {
					break
				}
				n++
			}
		}
		segs = append(segs, Seg{Start: start, Len: n})
		k += n
	}
	return segs
}

// narrowPass shrinks every array's storage onto the canonical accessed
// bounding box (dropping the origin-anchored slack the naive layout
// allocates for shifted accesses) and marks dead and read-only arrays
// as seed-once: no run mutates them, so the emitted program skips
// their re-seed between the sequential and pipelined runs. Seeding and
// hashing always iterate the canonical box, so the result hash is
// unchanged by construction.
func narrowPass(p *Program, opt Options) {
	var saved, narrowed, readonly, dead int64
	for i := range p.Arrays {
		a := &p.Arrays[i]
		if diff := a.StorageSize - a.Size(); diff > 0 {
			saved += int64(diff)
			narrowed++
		}
		a.StorageOffset = a.Offset
		a.StorageExtent = a.Extent
		a.StorageSize = a.Size()
		if !a.Accessed {
			dead++
			a.SeedOnce = true
		} else if !a.Written {
			readonly++
			a.SeedOnce = true
		}
	}
	opt.Obs.Count("ir.arrays_narrowed", narrowed)
	opt.Obs.Count("ir.extent_cells_saved", saved)
	opt.Obs.Count("ir.arrays_readonly", readonly)
	opt.Obs.Count("ir.arrays_dead", dead)
}
