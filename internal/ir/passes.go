package ir

import (
	"fmt"
	"strings"

	"repro/internal/isl"
)

// Pass is one IR-to-IR transformation. Passes run in the canonical
// pipeline order (the order Passes returns) regardless of how a
// subset was selected, because later passes consume what earlier ones
// produce: hoisting resolves the post-fusion task list, and
// specialization inlines the bodies fused tasks iterate.
type Pass struct {
	Name string
	Desc string
	run  func(p *Program, opt Options)
}

// Passes returns the full pipeline in canonical order.
func Passes() []Pass {
	return []Pass{
		{
			Name: "fuse",
			Desc: "merge tiny blocks along single-predecessor chains (runtime.FuseChains classification)",
			run:  fusePass,
		},
		{
			Name: "hoist",
			Desc: "resolve the §5.4 dependency addresses once at compile time into a CSR DAG",
			run:  hoistPass,
		},
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
func ParsePasses(spec string) ([]Pass, error) {
	switch strings.TrimSpace(spec) {
	case "", "all", "default":
		return Passes(), nil
	case "none":
		return nil, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, ps := range Passes() {
			if ps.Name == name {
				found = true
				break
			}
		}
		if !found {
			var known []string
			for _, ps := range Passes() {
				known = append(known, ps.Name)
			}
			return nil, fmt.Errorf("ir: unknown pass %q (have %s, plus \"all\" and \"none\")",
				name, strings.Join(known, ", "))
		}
		want[name] = true
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

// fusePass merges tiny blocks along the single-predecessor chains
// runtime.FuseChains classifies (consumer whose only predecessor is its
// producer). Walking each chain head-to-tail, consecutive tasks are
// merged while the merged task stays at or below the fusion threshold
// in iterations; a merged task runs its units back to back, a handoff
// that needs no synchronization, so results are unchanged while the
// emitted program carries fewer, meatier tasks.
func fusePass(p *Program, opt Options) {
	rt := p.rt
	if rt == nil || rt.NumTasks() != len(p.Tasks) {
		// Lowered task list no longer matches the runtime DAG the
		// classification was computed from (fuse already ran).
		return
	}
	threshold := opt.FuseThreshold
	if threshold <= 0 {
		threshold = DefaultFuseThreshold
	}
	rt.FuseChains()
	n := len(p.Tasks)
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	for i := 0; i < n; i++ {
		if rt.FusedIn(i) {
			continue // interior of a chain; handled from its head
		}
		head := i
		total := p.Tasks[i].Iters()
		for next := rt.ChainNext(i); next >= 0; next = rt.ChainNext(next) {
			iters := p.Tasks[next].Iters()
			if total+iters <= threshold {
				group[next] = head
				total += iters
			} else {
				head = next
				total = iters
			}
		}
	}
	members := map[int][]int{}
	for id, head := range group {
		members[head] = append(members[head], id)
	}
	var tasks []Task
	fusedAway := 0
	for id := 0; id < n; id++ {
		if group[id] != id {
			continue
		}
		ids := members[id]
		if len(ids) == 1 {
			tasks = append(tasks, p.Tasks[id])
			continue
		}
		fusedAway += len(ids) - 1
		merged := Task{Label: fmt.Sprintf("%s+%d", p.Tasks[id].Label, len(ids)-1)}
		for _, m := range ids {
			t := &p.Tasks[m]
			merged.Units = append(merged.Units, t.Units...)
			merged.Outs = appendUnique(merged.Outs, t.Outs)
			merged.Ins = appendUnique(merged.Ins, t.Ins)
			merged.Serials = appendUnique(merged.Serials, t.Serials)
		}
		tasks = append(tasks, merged)
	}
	p.Tasks = tasks
	// The pre-fusion runtime DAG no longer matches the task list.
	p.rt = nil
	opt.Obs.Count("ir.blocks_fused", int64(fusedAway))
	opt.Obs.SetGauge("ir.tasks", int64(len(p.Tasks)))
}

func appendUnique(dst []int, src []int) []int {
	for _, v := range src {
		dup := false
		for _, w := range dst {
			if w == v {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, v)
		}
	}
	return dst
}

// hoistPass resolves the §5.4 dependency addresses once, at compile
// time, with exactly the runtime.Builder algorithm (In addresses
// against the last writer, serial keys against the last task of the
// same statement, in creation order), and freezes the result as the
// CSR DAG the emitted program embeds. Without it the emitted program
// ships the address tables and replays the resolution at startup —
// per-address map lookups the pass makes disappear entirely.
func hoistPass(p *Program, opt Options) {
	n := len(p.Tasks)
	preds := make([][]int32, n)
	lastWriter := map[int]int32{}
	lastSerial := map[int]int32{}
	addrs := 0
	for i := range p.Tasks {
		t := &p.Tasks[i]
		add := func(q int32) {
			if int(q) == i {
				return // producer fused into this very task
			}
			for _, have := range preds[i] {
				if have == q {
					return
				}
			}
			preds[i] = append(preds[i], q)
		}
		for _, addr := range t.Ins {
			if w, ok := lastWriter[addr]; ok {
				add(w)
			}
		}
		for _, key := range t.Serials {
			if key < 0 {
				continue
			}
			if q, ok := lastSerial[key]; ok {
				add(q)
			}
			lastSerial[key] = int32(i)
		}
		for _, addr := range t.Outs {
			if addr >= 0 {
				lastWriter[addr] = int32(i)
			}
		}
		addrs += len(t.Ins) + len(t.Outs) + len(t.Serials)
	}
	csr := &CSR{
		SuccOff: make([]int32, n+1),
		Indeg0:  make([]int32, n),
	}
	counts := make([]int32, n)
	for i := 0; i < n; i++ {
		csr.Indeg0[i] = int32(len(preds[i]))
		if len(preds[i]) == 0 {
			csr.Roots = append(csr.Roots, int32(i))
		}
		for _, q := range preds[i] {
			counts[q]++
		}
	}
	for i := 0; i < n; i++ {
		csr.SuccOff[i+1] = csr.SuccOff[i] + counts[i]
	}
	csr.Succs = make([]int32, csr.SuccOff[n])
	fill := make([]int32, n)
	copy(fill, csr.SuccOff[:n])
	for i := 0; i < n; i++ {
		for _, q := range preds[i] {
			csr.Succs[fill[q]] = int32(i)
			fill[q]++
		}
	}
	p.CSR = csr
	opt.Obs.Count("ir.addrs_hoisted", int64(addrs))
	opt.Obs.SetGauge("ir.edges", int64(csr.NumEdges()))
}

// specializePass converts every unit from "scan the full domain behind
// a lexicographic interval guard" to run-length segments covering
// exactly the block's members — cut from the unit's interval of the
// statement's sorted points — and marks every statement body for
// inlining: the emitter then produces straight-line per-task loops
// with no per-iteration dispatch, guard, or bounds re-derivation.
func specializePass(p *Program, opt Options) {
	segs := 0
	for i := range p.Tasks {
		for j := range p.Tasks[i].Units {
			u := &p.Tasks[i].Units[j]
			u.Segs = segments(p.Members(u))
			segs += len(u.Segs)
		}
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
