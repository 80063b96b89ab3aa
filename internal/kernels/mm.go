package kernels

import (
	"fmt"

	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/scop"
)

// This file builds the second benchmark set (§6, Figure 11): chains of
// n = 2, 3, 4 matrix multiplications (the Polybench 2mm/3mm kernels
// plus a 4mm extension), executed — as in the paper — as consecutive
// vector–matrix multiplications: one statement instance computes one
// row of the chain's next matrix, so iteration domains are
// 1-dimensional and memory is modelled at row granularity (exactly the
// granularity the pipeline tasks synchronize on).
//
// Variants:
//
//	MM   — C_k = C_{k-1} × B_k. Rows are independent: Polly's per-loop
//	       parallelization wins here.
//	MMT  — like MM with every B_k transposed beforehand (better
//	       locality in the dot products); same dependence structure.
//	GMM  — generalized MM: after the product, each row is combined
//	       with the *original* next row of the same output matrix
//	       (C[i+1][j]) and its own previous column (C[i][j-1]),
//	       serializing every nest. Polly finds nothing; only cross-loop
//	       pipelining helps.
//	GMMT — GMM with transposed operands.
type Variant int

// Variants of the matrix-multiplication chains.
const (
	MM Variant = iota
	MMT
	GMM
	GMMT
)

// String names the variant as in Figure 11 ("mm", "mmt", "gmm", "gmmt").
func (v Variant) String() string {
	switch v {
	case MM:
		return "mm"
	case MMT:
		return "mmt"
	case GMM:
		return "gmm"
	case GMMT:
		return "gmmt"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

func (v Variant) transposed() bool  { return v == MMT || v == GMMT }
func (v Variant) generalized() bool { return v == GMM || v == GMMT }

// MMChain builds the n-chain (n in 2..4 in the paper, any n >= 1 here)
// of matrix multiplications over rows×rows float64 matrices.
func MMChain(n, rows int, variant Variant) *Program {
	if n < 1 || rows < 2 {
		panic(fmt.Sprintf("kernels: MMChain(n=%d, rows=%d)", n, rows))
	}
	// c[0] is the input matrix; c[k] = c[k-1] × b[k].
	c := make([]*Grid, n+1)
	bOps := make([]*Grid, n+1)
	for k := 0; k <= n; k++ {
		c[k] = NewGrid(rows)
		if k > 0 {
			bOps[k] = NewGrid(rows)
		}
	}

	sb := scop.NewBuilder(fmt.Sprintf("%d%s", n, variant))
	for k := 0; k <= n; k++ {
		sb.Array(rowArray(k), 1)
	}
	for k := 1; k <= n; k++ {
		name := fmt.Sprintf("S%d", k)
		stmt := sb.Stmt(name, aff.RectDomain(name, rows)).
			Writes(rowArray(k), aff.Var(1, 0)).
			Reads(rowArray(k-1), aff.Var(1, 0))
		if variant.generalized() {
			// Original-value reads of the own matrix serialize the nest.
			stmt.Reads(rowArray(k), aff.Var(1, 0)).
				Reads(rowArray(k), aff.Linear(1, 1))
		}
		src, dst, op := c[k-1], c[k], bOps[k]
		stmt.Body(rowBody(src, dst, op, variant))
	}
	sc := sb.MustBuild()

	reset := func() {
		for k := 0; k <= n; k++ {
			c[k].SeedDeterministic(uint64(10 + k))
			if k > 0 {
				seedOperand(bOps[k], uint64(100+k), variant.transposed())
			}
		}
	}
	reset()
	return &Program{
		Name:  fmt.Sprintf("%d%s", n, variant),
		SCoP:  sc,
		Reset: reset,
		Hash: func() uint64 {
			h := uint64(0)
			for k := 1; k <= n; k++ {
				h = h*1099511628211 ^ c[k].Hash()
			}
			return h
		},
	}
}

func rowArray(k int) string { return fmt.Sprintf("C%d", k) }

// seedOperand fills an operand matrix; for transposed variants it
// stores B^T so the dot product walks rows contiguously, mirroring the
// paper's nmmt kernels where the second matrix is transposed
// beforehand.
func seedOperand(g *Grid, seed uint64, transposed bool) {
	g.SeedDeterministic(seed)
	if transposed {
		for i := 0; i < g.N; i++ {
			for j := i + 1; j < g.N; j++ {
				v := g.At(i, j)
				g.Set(i, j, g.At(j, i))
				g.Set(j, i, v)
			}
		}
	}
}

// rowBody returns the statement body computing row i of dst from row i
// of src times op (optionally transposed), with the generalized
// variants folding in the original dst rows.
func rowBody(src, dst, op *Grid, variant Variant) scop.Body {
	n := dst.N
	transposed := variant.transposed()
	generalized := variant.generalized()
	return func(iv isl.Vec) {
		i := iv[0]
		srcRow := src.Row(i)
		out := make([]float64, n)
		if transposed {
			for j := 0; j < n; j++ {
				opRow := op.Row(j) // B^T row j is B column j
				acc := 0.0
				for t := 0; t < n; t++ {
					acc += srcRow[t] * opRow[t]
				}
				out[j] = acc
			}
		} else {
			for j := 0; j < n; j++ {
				acc := 0.0
				for t := 0; t < n; t++ {
					acc += srcRow[t] * op.At(t, j)
				}
				out[j] = acc
			}
		}
		if generalized {
			// Combine with original values of the next row and the
			// previous column of this row (read before overwriting).
			next := i
			if i+1 < n {
				next = i + 1
			}
			nextRow := dst.Row(next)
			ownRow := dst.Row(i)
			prev := ownRow[0]
			for j := 0; j < n; j++ {
				left := prev
				if j > 0 {
					left = ownRow[j-1]
				}
				out[j] = out[j]*1e-4 + 0.5*nextRow[j] + 0.25*left
			}
		}
		copy(dst.Row(i), out)
	}
}
