package runtime

// Single-predecessor chain classification for ir's fuse pass: a
// consumer whose only predecessor is its producer can be merged into
// it, a static point-to-point handoff in the manner of Alias's
// polyhedral process networks, with no other synchronization (Alias,
// "Improving Communication Patterns in Polyhedral Process Networks").

// FuseChains classifies the program's single-predecessor chains once
// (memoized; safe to call concurrently) and returns the number of fused
// edges.
//
// A task j is fused onto its producer i when j has exactly one
// predecessor: i's completion is then the only event that can make j
// ready, so the handoff needs no synchronization at all. A producer
// adopts at most one fused successor — the lowest task id, so
// classification is deterministic — and its remaining successors keep
// their edges. Because every predecessor id is smaller than its
// consumer's, chains strictly increase in task id and can never form a
// cycle.
func (p *Program) FuseChains() int {
	p.fuseOnce.Do(p.fuseChains)
	return p.fusedEdges
}

func (p *Program) fuseChains() {
	n := p.NumTasks()
	next := make([]int32, n)
	for i := range next {
		next[i] = -1
	}
	fusedIn := make([]bool, n)
	for j := 0; j < n; j++ {
		if p.Indegree0(j) != 1 {
			continue
		}
		i := p.PredsOf(j)[0]
		if next[i] < 0 {
			next[i] = int32(j)
			fusedIn[j] = true
			p.fusedEdges++
		}
	}
	p.fusedIn = fusedIn
	p.chainNext = next
}

// ChainNext returns the task fused after task i, or -1. Valid after
// FuseChains.
func (p *Program) ChainNext(i int) int {
	if p.chainNext == nil {
		return -1
	}
	return int(p.chainNext[i])
}

// FusedIn reports whether task i is the fused successor of its
// producer. Valid after FuseChains.
func (p *Program) FusedIn(i int) bool {
	return p.fusedIn != nil && p.fusedIn[i]
}

// NumFusedEdges returns the number of dependency edges FuseChains
// classified as fusable (0 before FuseChains).
func (p *Program) NumFusedEdges() int { return p.fusedEdges }

// ChainProfile summarizes the classification for introspection:
// the number of multi-task chains and the longest chain's task count.
// Valid after FuseChains.
func (p *Program) ChainProfile() (chains, longest int) {
	if p.chainNext == nil {
		return 0, 0
	}
	for i := range p.chainNext {
		if p.fusedIn[i] || p.chainNext[i] < 0 {
			continue // not a chain head
		}
		chains++
		length := 1
		for j := p.chainNext[i]; j >= 0; j = p.chainNext[j] {
			length++
		}
		if length > longest {
			longest = length
		}
	}
	return chains, longest
}
