package kernels

import (
	"fmt"

	"repro/internal/isl"
	"repro/internal/isl/aff"
	"repro/internal/mpint"
	"repro/internal/scop"
)

// This file encodes the ten programs of the paper's Table 9 (Figure 9).
// Each program P1–P10 is a sequence of 2–4 for-loop nests; the k-th
// nest updates matrix A_k of multi-precision integers by adding its
// inputs element-wise and advancing each element num_k primes
// (mpint.Work, the GMP next_prime substitute). Every nest additionally
// reads its own A_k[i][j+1] and A_k[i+1][j+1] neighbours, which
// serializes the nest — the paper designs the kernels so Polly cannot
// parallelize any loop — while the cross-nest reads listed in the
// Memory-access column create the pipeline opportunities.
//
// The Table 9 text in our source is partially OCR-garbled; the specs
// below are a documented best-effort reconstruction preserving each
// program's nest count, num_i cost vector, and access-pattern kinds
// (identity, strided A[2i][2j], shifted A[i+3][j], half-column
// A[i][2j], and the multi-source fan-ins).

// Pattern is a cross-nest read access shape from Table 9.
type Pattern int

const (
	// PatID reads A_src[i][j].
	PatID Pattern = iota
	// PatStride2 reads A_src[2i][2j].
	PatStride2
	// PatShift3 reads A_src[i+3][j].
	PatShift3
	// PatHalfCol reads A_src[i][2j].
	PatHalfCol
)

// String names the pattern like the paper's Memory-access column.
func (p Pattern) String() string {
	switch p {
	case PatID:
		return "A[i][j]"
	case PatStride2:
		return "A[2i][2j]"
	case PatShift3:
		return "A[i+3][j]"
	case PatHalfCol:
		return "A[i][2j]"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// exprs returns the row/column index expressions of the pattern.
func (p Pattern) exprs() (row, col aff.Expr) {
	switch p {
	case PatID:
		return aff.Var(2, 0), aff.Var(2, 1)
	case PatStride2:
		return aff.Linear(0, 2, 0), aff.Linear(0, 0, 2)
	case PatShift3:
		return aff.Linear(3, 1, 0), aff.Var(2, 1)
	case PatHalfCol:
		return aff.Var(2, 0), aff.Linear(0, 0, 2)
	}
	panic("kernels: unknown pattern")
}

// CrossRead is one cross-nest read: statement S_k reads matrix A_Src
// (1-based) with the given pattern.
type CrossRead struct {
	Src int
	Pat Pattern
}

// T9Spec describes one Table 9 program.
type T9Spec struct {
	Name  string
	Nums  []int         // num_k per nest; len is the nest count
	Reads [][]CrossRead // Reads[k] lists nest k's cross reads (Reads[0] empty)
}

// Table9 is the reconstructed Table 9 / Figure 9.
var Table9 = []T9Spec{
	{Name: "P1", Nums: []int{1, 1}, Reads: [][]CrossRead{
		{},
		{{1, PatID}},
	}},
	{Name: "P2", Nums: []int{2, 6}, Reads: [][]CrossRead{
		{},
		{{1, PatStride2}},
	}},
	{Name: "P3", Nums: []int{1, 1, 1}, Reads: [][]CrossRead{
		{},
		{{1, PatID}},
		{{1, PatID}, {2, PatID}},
	}},
	{Name: "P4", Nums: []int{2, 2, 8}, Reads: [][]CrossRead{
		{},
		{{1, PatShift3}},
		{{1, PatStride2}, {2, PatStride2}},
	}},
	{Name: "P5", Nums: []int{1, 1, 1, 1}, Reads: [][]CrossRead{
		{},
		{{1, PatID}},
		{{1, PatID}, {2, PatID}},
		{{1, PatID}, {2, PatID}, {3, PatID}},
	}},
	{Name: "P6", Nums: []int{1, 8, 32, 32}, Reads: [][]CrossRead{
		{},
		{{1, PatShift3}},
		{{1, PatShift3}, {2, PatID}},
		{{1, PatShift3}, {2, PatID}, {3, PatID}},
	}},
	{Name: "P7", Nums: []int{1, 8, 8, 8}, Reads: [][]CrossRead{
		{},
		{{1, PatStride2}},
		{{1, PatStride2}, {2, PatStride2}},
		{{1, PatID}, {2, PatID}},
	}},
	{Name: "P8", Nums: []int{1, 1, 1, 1}, Reads: [][]CrossRead{
		{},
		{{1, PatID}},
		{{1, PatID}},
		{{3, PatID}},
	}},
	{Name: "P9", Nums: []int{1, 1, 1, 1}, Reads: [][]CrossRead{
		{},
		{{1, PatHalfCol}},
		{{1, PatID}, {2, PatHalfCol}},
		{{1, PatHalfCol}, {3, PatID}},
	}},
	{Name: "P10", Nums: []int{1, 2, 2, 2}, Reads: [][]CrossRead{
		{},
		{{1, PatShift3}},
		{{2, PatID}},
		{{3, PatID}},
	}},
}

// T9SpecByName looks a spec up by program name ("P1".."P10").
func T9SpecByName(name string) (T9Spec, bool) {
	for _, s := range Table9 {
		if s.Name == name {
			return s, true
		}
	}
	return T9Spec{}, false
}

// maxT9Inputs is the widest fan-in of a Table 9 body: the two
// serializing neighbours plus up to three cross reads (P5, P6). The
// body's inputs live in a stack array of this size.
const maxT9Inputs = 5

// BuildTable9 instantiates one Table 9 program with N×N matrices whose
// cells hold size multi-precision integers. It panics when n < 8 or a
// nest has more than maxT9Inputs inputs; Table9Program is the checked
// entry point for caller-supplied sizes.
func BuildTable9(spec T9Spec, n, size int) *Program {
	if n < 8 {
		panic("kernels: Table 9 programs require n >= 8")
	}
	nests := len(spec.Nums)
	mats := make([]*mpint.Matrix, nests+1) // 1-based
	for k := 1; k <= nests; k++ {
		mats[k] = mpint.NewMatrix(n, size)
	}

	b := scop.NewBuilder(spec.Name)
	for k := 1; k <= nests; k++ {
		b.Array(matName(k), 2)
	}
	for k := 1; k <= nests; k++ {
		rows, cols := n-1, n-1
		for _, cr := range spec.Reads[k-1] {
			switch cr.Pat {
			case PatStride2:
				rows = minInt(rows, n/2-1)
				cols = minInt(cols, n/2-1)
			case PatShift3:
				rows = minInt(rows, n-4)
			case PatHalfCol:
				cols = minInt(cols, n/2-1)
			}
		}
		stmtName := fmt.Sprintf("S%d", k)
		sb := b.Stmt(stmtName, aff.RectDomain(stmtName, rows, cols)).
			Writes(matName(k), aff.Var(2, 0), aff.Var(2, 1)).
			// Serializing self-neighbour reads (same shape as Listing 1).
			Reads(matName(k), aff.Var(2, 0), aff.Var(2, 1)).
			Reads(matName(k), aff.Var(2, 0), aff.Linear(1, 0, 1)).
			Reads(matName(k), aff.Linear(1, 1, 0), aff.Linear(1, 0, 1))
		crossReads := spec.Reads[k-1]
		if 2+len(crossReads) > maxT9Inputs {
			panic(fmt.Sprintf("kernels: %s nest %d has %d inputs, more than %d", spec.Name, k, 2+len(crossReads), maxT9Inputs))
		}
		for _, cr := range crossReads {
			row, col := cr.Pat.exprs()
			sb.Reads(matName(cr.Src), row, col)
		}
		dst := mats[k]
		num := spec.Nums[k-1]
		crs := append([]CrossRead(nil), crossReads...)
		srcMats := mats
		sb.Body(func(iv isl.Vec) {
			i, j := iv[0], iv[1]
			var buf [maxT9Inputs]*mpint.Data // Work does not retain it
			inputs := append(buf[:0], dst.At(i, j+1), dst.At(i+1, j+1))
			for _, cr := range crs {
				src := srcMats[cr.Src]
				switch cr.Pat {
				case PatID:
					inputs = append(inputs, src.At(i, j))
				case PatStride2:
					inputs = append(inputs, src.At(2*i, 2*j))
				case PatShift3:
					inputs = append(inputs, src.At(i+3, j))
				case PatHalfCol:
					inputs = append(inputs, src.At(i, 2*j))
				}
			}
			mpint.Work(dst.At(i, j), inputs, num)
		})
	}
	sc := b.MustBuild()

	reset := func() {
		for k := 1; k <= nests; k++ {
			mats[k].Reseed(uint64(k))
		}
	}
	reset()
	return &Program{
		Name:  spec.Name,
		SCoP:  sc,
		Reset: reset,
		Hash: func() uint64 {
			h := uint64(0)
			for k := 1; k <= nests; k++ {
				h = h*1099511628211 ^ mats[k].Hash()
			}
			return h
		},
	}
}

// Table9Program builds the named Table 9 program, returning an error
// where BuildTable9 would panic on n < 8.
func Table9Program(name string, n, size int) (*Program, error) {
	spec, ok := T9SpecByName(name)
	if !ok {
		return nil, fmt.Errorf("kernels: unknown Table 9 program %q", name)
	}
	if n < 8 {
		return nil, fmt.Errorf("kernels: Table 9 program %s needs n >= 8, got %d", name, n)
	}
	return BuildTable9(spec, n, size), nil
}

func matName(k int) string { return fmt.Sprintf("A%d", k) }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
