// Package fuzzscop generates random well-formed SCoPs of the shape the
// pipeline transformation targets — consecutive loop nests where each
// nest writes its own array and reads earlier arrays through random
// affine patterns — for differential testing: whatever the detector
// and executors do with the program, the result must match sequential
// execution bit-for-bit.
package fuzzscop

import (
	"fmt"
	"math/rand"

	"repro/internal/isl/aff"
	"repro/internal/scop"
)

// Config bounds the generated programs.
type Config struct {
	MaxNests   int // ≥ 1; default 4
	MaxDepth   int // 1 or 2; default 2
	MaxExtent  int // per-dimension domain size; default 8
	SelfSerial SerialMode
	// Overwrites permits some nests to write non-injectively
	// (A[i/2]-style accesses, declared with WritesOverwriting); such
	// programs need core.Options.AllowOverwrites to be detected.
	Overwrites bool
	// Sink appends a final pure-reader nest (no write access) that
	// consumes random earlier arrays.
	Sink bool
	// Shifted draws every loop's lower bound from [-6, 2] instead of
	// starting at 0, so domains, leaders and array cells take negative
	// and shifted coordinates. Off, Random draws nothing extra, so a
	// seed keeps the program the cross-backend goldens were built from.
	Shifted bool
}

// SerialMode controls whether generated nests carry self
// anti-dependences (which serialize them): random per nest, always, or
// never.
type SerialMode int

// Self-serialization knob values.
const (
	SometimesSerial SerialMode = iota
	AlwaysSerial
	NeverSerial
)

func (c Config) withDefaults() Config {
	if c.MaxNests == 0 {
		c.MaxNests = 4
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 2
	}
	if c.MaxExtent == 0 {
		c.MaxExtent = 8
	}
	return c
}

// Random generates one random SCoP. Programs are always valid: each
// nest writes its own array injectively, reads only arrays of earlier
// nests (plus optionally its own), and domains are non-empty.
func Random(r *rand.Rand, cfg Config) *scop.SCoP {
	cfg = cfg.withDefaults()
	nests := 1 + r.Intn(cfg.MaxNests)
	depth := 1 + r.Intn(cfg.MaxDepth)

	b := scop.NewBuilder(fmt.Sprintf("fuzz-%d-%d", nests, depth))
	for k := 0; k < nests; k++ {
		b.Array(arrName(k), depth)
	}

	for k := 0; k < nests; k++ {
		extents := make([]int, depth)
		for d := range extents {
			extents[d] = 2 + r.Intn(cfg.MaxExtent-1)
		}
		name := fmt.Sprintf("S%d", k)
		sb := b.Stmt(name, cfg.domain(r, name, extents))

		// Write to the nest's own array: usually the injective
		// identity; with Overwrites enabled, sometimes a folding
		// A[i/2]-style access on the innermost dimension.
		idx := make([]aff.Expr, depth)
		for d := range idx {
			idx[d] = aff.Var(depth, d)
		}
		if cfg.Overwrites && r.Intn(2) == 0 {
			idx[depth-1] = aff.FloorDiv(aff.Var(depth, depth-1), 2)
			sb.WritesOverwriting(arrName(k), idx...)
		} else {
			sb.Writes(arrName(k), idx...)
		}

		// Optional self reads (serialize the nest via anti deps).
		serial := false
		switch cfg.SelfSerial {
		case AlwaysSerial:
			serial = true
		case NeverSerial:
		default:
			serial = r.Intn(2) == 0
		}
		if serial {
			shift := make([]aff.Expr, depth)
			for d := range shift {
				if d == depth-1 {
					shift[d] = aff.Linear(1, varCoeffs(depth, d)...)
				} else {
					shift[d] = aff.Var(depth, d)
				}
			}
			sb.Reads(arrName(k), shift...)
		}

		// Cross reads from up to three random earlier nests.
		for n := 0; n < r.Intn(4) && k > 0; n++ {
			src := r.Intn(k)
			idx := make([]aff.Expr, depth)
			for d := range idx {
				stride := 1 + r.Intn(2)
				offset := r.Intn(3) - 1
				coeffs := make([]int, depth)
				coeffs[d] = stride
				idx[d] = aff.Linear(offset, coeffs...)
			}
			sb.Reads(arrName(src), idx...)
		}
	}
	if cfg.Sink && nests > 0 {
		depthS := 1 + r.Intn(cfg.MaxDepth)
		extents := make([]int, depthS)
		for d := range extents {
			extents[d] = 2 + r.Intn(cfg.MaxExtent-1)
		}
		sb := b.Stmt("Sink", cfg.domain(r, "Sink", extents))
		for n := 0; n < 1+r.Intn(3); n++ {
			src := r.Intn(nests)
			idx := make([]aff.Expr, depth)
			for d := range idx {
				coeffs := make([]int, depthS)
				if d < depthS {
					coeffs[d] = 1
				}
				idx[d] = aff.Linear(r.Intn(2), coeffs...)
			}
			sb.Reads(arrName(src), idx...)
		}
	}
	return b.MustBuild()
}

// Stress deterministically generates the large fuzz SCoP the detection
// benchmarks use (core's BenchmarkDetect records it as "fuzzstress"):
// the first seed whose
// program has at least seven statements, so the per-pair and
// per-statement detection phases have real fan-out.
func Stress() *scop.SCoP {
	cfg := Config{
		MaxNests:   8,
		MaxDepth:   2,
		MaxExtent:  24,
		SelfSerial: NeverSerial,
		Sink:       true,
	}
	for seed := int64(0); ; seed++ {
		sc := Random(rand.New(rand.NewSource(seed)), cfg)
		if len(sc.Stmts) >= 7 {
			return sc
		}
	}
}

// domain returns the nest's rectangle of the given extents, starting at
// the origin or, under Shifted, at a random lower bound per dimension.
func (c Config) domain(r *rand.Rand, name string, extents []int) *aff.Domain {
	if !c.Shifted {
		return aff.RectDomain(name, extents...)
	}
	bounds := make([]aff.LoopBound, len(extents))
	for d, n := range extents {
		lo := r.Intn(9) - 6
		bounds[d] = aff.ConstBound(d, lo, lo+n)
	}
	return aff.NewDomain(name, bounds...)
}

func arrName(k int) string { return fmt.Sprintf("A%d", k) }

func varCoeffs(depth, d int) []int {
	cs := make([]int, depth)
	cs[d] = 1
	return cs
}
