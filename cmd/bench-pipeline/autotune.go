package main

import (
	"fmt"
	"time"

	"repro/internal/autotune"
	"repro/internal/kernels"
)

// runAutotuneReport runs the profile-guided block-size search on Table
// 9's P4, P7 and P10 at each size and prints the full evaluation trail
// per kernel: every candidate granularity with its measured wall time,
// realized critical path, stalls, and fused chains, then the
// before/after verdict — a human-readable view of what the tuner saw.
func runAutotuneReport(sizes []int, workers int, budget int) error {
	for _, name := range []string{"P4", "P7", "P10"} {
		for _, n := range sizes {
			p, err := kernels.Table9Program(name, n, 1)
			if err != nil {
				return err
			}
			res, err := autotune.Tune(p, autotune.Config{
				Workers: workers,
				Budget:  budget,
				Reps:    1,
			})
			if err != nil {
				return fmt.Errorf("autotune %s/n=%d: %w", name, n, err)
			}
			fmt.Printf("%s/n=%d (workers=%d):\n", name, n, workers)
			for _, s := range res.Samples {
				marker := " "
				if s.BlockIters == res.Chosen {
					marker = "*"
				}
				fmt.Printf(" %s block_iters=%-5d %12v  tasks=%-6d critical=%-12v stall=%-12v fused=%d\n",
					marker, s.BlockIters, s.Elapsed, s.Tasks,
					s.Critical, time.Duration(s.StallNs), s.ChainFused)
			}
			fmt.Printf("  chosen block_iters=%d after %d evals (converged=%v): %v -> %v (%.2fx)\n\n",
				res.Chosen, res.Evals, res.Converged,
				res.Baseline.Elapsed, res.Best.Elapsed, res.Speedup())
		}
	}
	return nil
}
