package polypipe

import (
	"repro/internal/isl"
	"repro/internal/isl/aff"
)

// Affine-construction surface re-exported from the internal aff and
// isl packages, so programs can be defined against polypipe alone.
type (
	// Expr is a quasi-affine index or bound expression.
	Expr = aff.Expr
	// Domain is a symbolic loop-nest iteration domain.
	Domain = aff.Domain
	// LoopBound is one loop dimension's half-open [Lo, Hi) bounds.
	LoopBound = aff.LoopBound
	// Vec is an integer iteration vector (passed to statement bodies).
	Vec = isl.Vec
)

// Const returns the constant expression c over nvars loop variables.
func Const(nvars, c int) Expr { return aff.Const(nvars, c) }

// Var returns the expression selecting loop variable i of nvars.
func Var(nvars, i int) Expr { return aff.Var(nvars, i) }

// Linear returns c + Σ coeffs[d]·i_d.
func Linear(c int, coeffs ...int) Expr { return aff.Linear(c, coeffs...) }

// FloorDiv returns ⌊e/den⌋.
func FloorDiv(e Expr, den int) Expr { return aff.FloorDiv(e, den) }

// RectDomain returns the rectangular domain [0,hi0) × [0,hi1) × … for
// the named statement.
func RectDomain(name string, his ...int) *Domain { return aff.RectDomain(name, his...) }

// NewDomain returns a loop-nest domain with explicit per-dimension
// bounds (dimension d's bounds are expressions over dimensions < d).
func NewDomain(name string, bounds ...LoopBound) *Domain { return aff.NewDomain(name, bounds...) }

// ConstBound is the constant half-open bound [lo, hi) for dimension d.
func ConstBound(d, lo, hi int) LoopBound { return aff.ConstBound(d, lo, hi) }
