package interp

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/kernels"
)

// BenchmarkSyntheticBody times the synthetic bodies alone: one
// exec.RunSequential of a Programify'd Table 9 program (P4, P7, P10 at
// n = 32 and 64) per op, reported as ns per statement instance
// (ns/point) beside -benchmem's allocs/op.
//
//	go test -bench=SyntheticBody -benchmem -run='^$' ./internal/interp/
func BenchmarkSyntheticBody(b *testing.B) {
	for _, name := range []string{"P4", "P7", "P10"} {
		for _, n := range []int{32, 64} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				k, err := kernels.Table9Program(name, n, 1)
				if err != nil {
					b.Fatal(err)
				}
				p := Programify(k.SCoP)
				points := 0
				for _, s := range p.SCoP.Stmts {
					points += len(s.Domain.Elements())
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					exec.RunSequential(p.SCoP)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*points), "ns/point")
			})
		}
	}
}
