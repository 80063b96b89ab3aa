// Package gen makes the benchmark's inputs — loop programs, served
// documents, request schedules — from a seed, and drives HTTP load in
// open and closed loops. It is shared by the end-to-end driver
// (benchmark/) and the traced per-layer pass (benchmark/layers/), and
// reaches the system under test only through the surfaces the driver
// may use (polypipe, serve, kernels, interp, scop), so a change inside
// the detection or execution layers cannot stop it from building.
package gen

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/scop"
)

// Member is one loop program of a workload: a Table 9 style spec (nest
// count, cross-nest reads) instantiated on n×n matrices.
type Member struct {
	Name string
	Spec kernels.T9Spec
	N    int
}

// Build instantiates the program with the paper's next_prime bodies
// (one multi-precision integer per cell). The SCoP is freshly built, so
// callers may re-body it with interp.Programify without touching any
// other instance.
func (m Member) Build() *kernels.Program {
	p := kernels.BuildTable9(m.Spec, m.N, 1)
	p.Name = m.Name
	p.SCoP.Name = m.Name
	return p
}

// Program instantiates m with the paper's bodies (heavy) or re-bodied
// with interp.Programify: a few flops per iteration, the semantics the
// AOT back end emits.
func (m Member) Program(heavy bool) *kernels.Program {
	p := m.Build()
	if !heavy {
		p = interp.Programify(p.SCoP)
		p.Name = m.Name
	}
	return p
}

// Key names m with a body kind, "P4/n=32/light": the key of its result
// hash in golden.json and of its emitted source on disk.
func (m Member) Key(heavy bool) string {
	if heavy {
		return m.Name + "/heavy"
	}
	return m.Name + "/light"
}

// Doc is a member in its wire form: the scop/v1 envelope a client
// POSTs to /v1/detect.
type Doc struct {
	Member
	Body []byte
}

// NewDoc serializes m's SCoP.
func NewDoc(m Member) (Doc, error) {
	body, err := scop.ToJSONEnveloped(m.Build().SCoP)
	if err != nil {
		return Doc{}, fmt.Errorf("document %s: %w", m.Name, err)
	}
	return Doc{Member: m, Body: body}, nil
}

// Docs serializes every member, GOMAXPROCS at a time: a cold corpus is
// hundreds of documents, and building them is the benchmark's own
// work, not the system's.
func Docs(ms []Member) ([]Doc, error) {
	docs := make([]Doc, len(ms))
	errs := make([]error, len(ms))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ms); i = int(next.Add(1)) - 1 {
				docs[i], errs[i] = NewDoc(ms[i])
			}
		}()
	}
	wg.Wait()
	return docs, errors.Join(errs...)
}

// T9 is the paper's Table 9 program name at size n.
func T9(name string, n int) Member {
	spec, ok := kernels.T9SpecByName(name)
	if !ok {
		panic("gen: unknown Table 9 program " + name)
	}
	return Member{Name: fmt.Sprintf("%s/n=%d", name, n), Spec: spec, N: n}
}

// The drawn corpus: 3–4 nests, each later nest reading one or two
// earlier matrices through one of the four Table 9 access patterns,
// n in [minN, maxN]. Patterns change domain volume up to 4× (a
// strided read quarters the reading nest's domain), and decode,
// fingerprint and detection all cost O(volume), so a draw is kept only
// when its work proxy falls inside [workLo, workHi], a band of ±3.6 %
// that still holds some 5000 distinct draws: documents differ in
// polyhedral content but cost about the same. Each of a warm corpus's
// 16 documents gets a sixteenth of the requests, so the costliest one
// alone sets the p95; a wider band made that a property of the seed.
const (
	minN, maxN     = 28, 36
	workLo, workHi = 10700, 11500
)

// work is the cost proxy of a drawn member: per nest, domain volume
// times the accesses enumerated over it (one write, three self reads,
// the cross reads). The domain rule mirrors kernels.BuildTable9;
// TestWorkMatchesBuiltDomains pins the two together.
func work(spec kernels.T9Spec, n int) (iterations, weighted int) {
	for _, reads := range spec.Reads {
		rows, cols := n-1, n-1
		for _, cr := range reads {
			switch cr.Pat {
			case kernels.PatStride2:
				rows, cols = min(rows, n/2-1), min(cols, n/2-1)
			case kernels.PatShift3:
				rows = min(rows, n-4)
			case kernels.PatHalfCol:
				cols = min(cols, n/2-1)
			}
		}
		iterations += rows * cols
		weighted += rows * cols * (4 + len(reads))
	}
	return iterations, weighted
}

// Draw returns count members with pairwise-distinct polyhedral content
// and near-equal work, named s<seed>-<index>. The sequence is
// prefix-stable: Draw(seed, k) is the first k members of any longer
// draw with the same seed.
func Draw(seed int64, count int) []Member {
	r := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, count)
	out := make([]Member, 0, count)
	for len(out) < count {
		nests := 3 + r.Intn(2)
		spec := kernels.T9Spec{Nums: make([]int, nests), Reads: make([][]kernels.CrossRead, nests)}
		var key strings.Builder
		for k := range spec.Nums {
			spec.Nums[k] = 1
			if k == 0 {
				continue
			}
			srcs := r.Perm(k)[:1+r.Intn(min(2, k))]
			for _, src := range srcs {
				cr := kernels.CrossRead{Src: src + 1, Pat: kernels.Pattern(r.Intn(4))}
				spec.Reads[k] = append(spec.Reads[k], cr)
				fmt.Fprintf(&key, "%d<%d:%d ", k, cr.Src, cr.Pat)
			}
		}
		n := minN + r.Intn(maxN-minN+1)
		fmt.Fprintf(&key, "n=%d", n)
		if _, w := work(spec, n); w < workLo || w > workHi || seen[key.String()] {
			continue
		}
		seen[key.String()] = true
		spec.Name = fmt.Sprintf("s%d-%03d", seed, len(out))
		out = append(out, Member{Name: spec.Name, Spec: spec, N: n})
	}
	return out
}
