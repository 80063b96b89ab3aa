// Command bench-mm regenerates the paper's Figure 11: for the chains
// of n = 2, 3, 4 (generalized, optionally transposed) matrix
// multiplications, it compares three executions against sequential —
//
//	pipeline — cross-loop pipelining with n workers (one per nest),
//	polly    — per-loop parallelization with n threads, and
//	polly_8  — per-loop parallelization with all (8) threads
//
// — and prints the log2 speed-ups: per kernel and series the median of
// the per-repetition ratios, with their quartiles in brackets. The
// paper's qualitative result: polly wins on the plain mm/mmt kernels
// (rows are independent), while on gmm/gmmt Polly detects nothing and
// only cross-loop pipelining gains.
//
// Modes: -mode sim (default) measures per-task costs sequentially and
// computes deterministic virtual-time schedules — correct on any host,
// including single-core machines; -mode real measures wall-clock times
// with actual worker pools and needs as many cores as threads to show
// the paper's shape.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/report"
	"repro/polypipe"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, prints the Figure 11 table to stdout and progress
// to stderr, and returns the exit code: 0, or 1 after a message on
// stderr for a bad flag, a size the kernels cannot take, or a failed
// kernel.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench-mm:", err)
		return 1
	}
	flags := flag.NewFlagSet("bench-mm", flag.ContinueOnError)
	flags.SetOutput(stderr)
	rows := flags.Int("rows", 192, "matrix dimension (rows == cols)")
	allThreads := flags.Int("all-threads", 8, "thread count for the polly_8 series")
	reps := flags.Int("reps", 3, "repetitions per kernel (the median ratio is reported, quartiles beside it)")
	mode := flags.String("mode", "sim", "sim (virtual time) or real (wall clock)")
	overhead := flags.Duration("task-overhead", 500*time.Nanosecond, "per-task scheduling overhead modelled in sim mode")
	if err := flags.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 1
	}
	switch {
	case *mode != "sim" && *mode != "real":
		return fail(fmt.Errorf("unknown mode %q", *mode))
	case *rows < 2:
		return fail(fmt.Errorf("-rows %d, want >= 2", *rows))
	case *reps < 1:
		return fail(fmt.Errorf("-reps %d, want >= 1", *reps))
	case *allThreads < 1:
		return fail(fmt.Errorf("-all-threads %d, want >= 1", *allThreads))
	}

	fmt.Fprintf(stdout, "Figure 11 reproduction: log2 speed-up vs sequential (rows=%d, reps=%d, mode=%s)\n\n",
		*rows, *reps, *mode)
	t := report.NewTable("kernel", "pipeline", "polly", fmt.Sprintf("polly_%d", *allThreads))

	for _, n := range []int{2, 3, 4} {
		for _, v := range []polypipe.Variant{polypipe.MM, polypipe.MMT, polypipe.GMM, polypipe.GMMT} {
			p := polypipe.MMChain(n, *rows, v)
			if err := polypipe.NewSession(polypipe.WithWorkers(n)).Verify(p); err != nil {
				return fail(fmt.Errorf("%s: %w", p.Name, err))
			}
			var pipe, polly, polly8 []float64
			for r := 0; r < *reps; r++ {
				a, b, c, err := measure(p, n, *allThreads, *mode, *overhead)
				if err != nil {
					return fail(err)
				}
				pipe, polly, polly8 = append(pipe, a), append(polly, b), append(polly8, c)
			}
			t.Add(p.Name, summarize(pipe), summarize(polly), summarize(polly8))
			fmt.Fprintf(stderr, ".")
		}
	}
	fmt.Fprintln(stderr)
	fmt.Fprintln(stdout, t.String())
	return 0
}

// measure returns the three speed-ups for one repetition.
func measure(p *polypipe.Program, n, allThreads int, mode string, overhead time.Duration) (pipe, polly, polly8 float64, err error) {
	s := polypipe.NewSession(polypipe.WithWorkers(n))
	s8 := polypipe.NewSession(polypipe.WithWorkers(allThreads))
	if mode == "sim" {
		out, err := s.Simulate(p, polypipe.SimConfig{Procs: []int{n}, Overhead: overhead})
		if err != nil {
			return 0, 0, 0, err
		}
		pipe = out[0]
		base, err := s.Simulate(p, polypipe.SimConfig{Mode: polypipe.ModeParLoop, Procs: []int{n, allThreads}, Overhead: overhead})
		if err != nil {
			return 0, 0, 0, err
		}
		return pipe, base[0], base[1], nil
	}
	seqRes, err := s.Run(polypipe.ModeSequential, p)
	if err != nil {
		return 0, 0, 0, err
	}
	seq := seqRes.Elapsed.Seconds()
	res, err := s.Run(polypipe.ModePipelined, p)
	if err != nil {
		return 0, 0, 0, err
	}
	pipe = seq / res.Elapsed.Seconds()
	pl, err := s.Run(polypipe.ModeParLoop, p)
	if err != nil {
		return 0, 0, 0, err
	}
	polly = seq / pl.Elapsed.Seconds()
	pl8, err := s8.Run(polypipe.ModeParLoop, p)
	if err != nil {
		return 0, 0, 0, err
	}
	polly8 = seq / pl8.Elapsed.Seconds()
	return pipe, polly, polly8, nil
}

// summarize formats per-repetition speed-up ratios as the log2 of
// their median, with the log2 of their quartiles in brackets.
func summarize(ratios []float64) string {
	s := append([]float64(nil), ratios...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo == len(s)-1 {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return fmt.Sprintf("%+.2f [%+.2f, %+.2f]", report.Log2(at(0.5)), report.Log2(at(0.25)), report.Log2(at(0.75)))
}
