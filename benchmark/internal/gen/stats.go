package gen

import (
	"math"
	"sort"
	"time"
)

// Ms converts a duration to fractional milliseconds.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (0 for an empty slice).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

// Percentile returns the nearest-rank p-th percentile of xs (0 for an
// empty slice).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// Uncontended is the reading a run reports for a time it took
// repeatedly, all along the run: the mean of the fastest quarter of the
// repetitions. The benchmark shares its processors with whatever else
// the host runs, in bursts of seconds; contention only ever adds time,
// so the quarter that ran fastest is where two runs of one program
// agree, and a slowdown of the program itself moves that quarter as it
// moves the rest. A mean over the quarter, not its boundary: repetitions
// of a two-worker run fall into two clusters (the second worker awake or
// not), and a single rank that lies between them jumps from one to the
// other.
func Uncontended(xs []float64) float64 {
	s := sorted(xs)
	return mean(s[:(len(s)+3)/4])
}

// UncontendedRate is the same reading for a rate, from which contention
// only subtracts: the mean of the highest quarter.
func UncontendedRate(xs []float64) float64 {
	s := sorted(xs)
	return mean(s[len(s)-(len(s)+3)/4:])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Spread is the distance between the first and third quartile of xs as
// a share of its median: the run-to-run noise the bounds are set
// against. Quartiles interpolate like Python's statistics.quantiles
// (n=4), so -compare reads spreads the way the acceptance procedure
// does. With fewer than two values it returns 0.
func Spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	quartile := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		i := min(max(int(math.Floor(pos)), 0), len(s)-2)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	m := Median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(quartile(0.75)-quartile(0.25)) / math.Abs(m)
}
