package main

import (
	"strings"
	"testing"
	"time"

	"repro/polypipe"
)

// TestSummarizeIsMedianOfRatios: the reported speed-up is the median
// of the per-repetition ratios (log2 1.0 here; the maximum would read
// +2.00), with the quartiles beside it.
func TestSummarizeIsMedianOfRatios(t *testing.T) {
	for _, c := range []struct {
		ratios []float64
		want   string
	}{
		{[]float64{1, 4, 2}, "+1.00 [+0.58, +1.58]"},
		{[]float64{2}, "+1.00 [+1.00, +1.00]"},
		{[]float64{0.5, 1, 1, 16}, "+0.00 [-0.19, +2.25]"},
	} {
		if got := summarize(c.ratios); got != c.want {
			t.Errorf("summarize(%v) = %q, want %q", c.ratios, got, c.want)
		}
	}
}

func TestMeasureSimMode(t *testing.T) {
	p := polypipe.MMChain(2, 16, polypipe.GMM)
	pipe, polly, polly8, err := measure(p, 2, 8, "sim", time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if pipe <= 0 || polly <= 0 || polly8 <= 0 {
		t.Fatalf("speedups = %f %f %f", pipe, polly, polly8)
	}
	// gmm: the baseline cannot beat ~1x.
	if polly > 1.2 || polly8 > 1.2 {
		t.Fatalf("gmm baseline speedups too high: %f %f", polly, polly8)
	}
}

func TestMeasureRealMode(t *testing.T) {
	p := polypipe.MMChain(2, 12, polypipe.MM)
	pipe, polly, polly8, err := measure(p, 2, 4, "real", 0)
	if err != nil {
		t.Fatal(err)
	}
	if pipe <= 0 || polly <= 0 || polly8 <= 0 {
		t.Fatalf("speedups = %f %f %f", pipe, polly, polly8)
	}
}

// TestRunRejectsBadFlags: sizes the kernels cannot take exit 1 with a
// message before any table is printed.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-rows", "1"},
		{"-reps", "0"},
		{"-all-threads", "0"},
		{"-mode", "fast"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if !strings.HasPrefix(errOut.String(), "bench-mm: ") {
			t.Errorf("%v: stderr %q", args, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}
