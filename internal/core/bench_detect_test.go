package core

import (
	"fmt"
	"testing"

	"repro/internal/fuzzscop"
	"repro/internal/kernels"
	"repro/internal/scop"
)

// benchSCoPs lists the detection benchmark inputs: three Table 9
// programs spanning the access-pattern space (identity, strided,
// shifted reads) plus one large fuzz-generated stress SCoP.
func benchSCoPs() []struct {
	name string
	sc   *scop.SCoP
} {
	return []struct {
		name string
		sc   *scop.SCoP
	}{
		{"P4/n=32", kernels.BuildTable9(mustSpec("P4"), 32, 1).SCoP},
		{"P7/n=32", kernels.BuildTable9(mustSpec("P7"), 32, 1).SCoP},
		{"P10/n=32", kernels.BuildTable9(mustSpec("P10"), 32, 1).SCoP},
		{"fuzzstress", fuzzscop.Stress()},
	}
}

func mustSpec(name string) kernels.T9Spec {
	spec, ok := kernels.T9SpecByName(name)
	if !ok {
		panic("unknown Table 9 program " + name)
	}
	return spec
}

// BenchmarkDetect measures Algorithm 1 end to end, serial and parallel;
// allocs/op tracks the isl layer's allocation behaviour on
// Map.Add-heavy workloads.
func BenchmarkDetect(b *testing.B) {
	for _, bc := range benchSCoPs() {
		for _, workers := range []int{1, 0} {
			mode := "serial"
			if workers != 1 {
				mode = "parallel"
			}
			b.Run(fmt.Sprintf("%s/%s", bc.name, mode), func(b *testing.B) {
				opts := Options{AllowOverwrites: true, Workers: workers}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Detect(bc.sc, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
