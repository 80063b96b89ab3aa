package codegen

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/runtime"
)

// benchIR keeps the benchmarked lowering live.
var benchIR *runtime.Program

// BenchmarkCompile times what a pipelined run pays before its first
// task: Compile, then BuildIR, on frozen detection results of Table 9
// P4, P7 and P10 at n = 32 and 64 (run with -benchmem for B/op and
// allocs/op).
func BenchmarkCompile(b *testing.B) {
	for _, name := range []string{"P4", "P7", "P10"} {
		for _, n := range []int{32, 64} {
			p, err := kernels.Table9Program(name, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			info, err := core.Detect(p.SCoP, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			info.Freeze()
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					prog, err := Compile(info)
					if err != nil {
						b.Fatal(err)
					}
					benchIR = prog.BuildIR()
				}
			})
		}
	}
}
