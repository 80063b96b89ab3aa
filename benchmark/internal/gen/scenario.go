package gen

import (
	"fmt"
	"math/rand"
)

// Scenario is one workload: the loop programs a user compiles and
// runs, the ones emitted ahead of time, the documents sent to the
// service, and how the run's seconds are shared between them.
//
// The benchmark contract has every workload report every end-to-end
// metric, so each scenario exercises all three surfaces. What differs
// is where the time goes and which inputs reach each surface; the Why
// strings in BENCHMARK.json and benchmark/README.md say what each one
// is for.
type Scenario struct {
	Name string
	// Heavy runs Exec with the paper's next_prime bodies; otherwise
	// programs are re-bodied with interp.Programify (a few flops per
	// iteration), which the AOT members always are.
	Heavy bool
	Exec  []Member
	// RunsPerRound is how many pipelined runs of each program a round
	// times after the one that compiled it.
	RunsPerRound int
	AOT          []Member
	// FixedDocs are served when non-nil; otherwise documents are drawn
	// from the seed.
	FixedDocs []Member
	// Cold serves every document exactly once, so each request misses
	// the detection cache; otherwise WarmDocs documents are primed and
	// replayed.
	Cold bool
	// Cycles is how many times a run goes through its four slices —
	// exec rounds, AOT emissions and invocations, an open-loop slice, a
	// closed-loop slice. Every surface is measured all along the run,
	// so a burst of contention on the host spoils some slices of every
	// metric instead of the whole of one (see Uncontended).
	Cycles int
	// ExecShare and OpenShare are the shares of the run's seconds spent
	// in exec rounds and in the open-loop slices. OpenRate (requests per
	// second) and ClosedPerSecond (closed-loop requests per second of
	// run length) are constants of the workload, never calibrated to
	// the system under test.
	ExecShare, OpenShare      float64
	OpenRate, ClosedPerSecond float64
	// SetupReps is how many times set-up is repeated for setup_s.
	SetupReps int
}

// WarmDocs is the size of a drawn warm corpus.
const WarmDocs = 16

// ColdPrime is how many documents a cold set-up sends before the first
// timed request: the detection cache's default capacity. From then on
// every request is a miss, an insert and an eviction, and the heap has
// stopped growing — a page touched for the first time costs the
// builder's sandbox ten times a touched one, so a phase that grows the
// heap times the sandbox's memory, not the service.
const ColdPrime = 128

// ColdPriming is the order of those priming requests: documents 0 to
// ColdPrime-1, or a handful in a smoke run.
func ColdPriming(sz Scale) []int {
	order := make([]int, sz.Reps(ColdPrime, 8))
	for i := range order {
		order[i] = i
	}
	return order
}

func t9(n int, names ...string) []Member {
	ms := make([]Member, len(names))
	for i, name := range names {
		ms[i] = T9(name, n)
	}
	return ms
}

// Scenarios lists the workloads in the order BENCHMARK.json names them.
func Scenarios() []Scenario {
	return []Scenario{
		{
			// A run of these takes a quarter of a second, first or not:
			// the one that compiles is the round's pipelined run.
			Name: "t9_heavy", Heavy: true,
			Exec: t9(32, "P4", "P7", "P10"), RunsPerRound: 0,
			AOT:       t9(32, "P4"),
			FixedDocs: t9(32, "P4", "P7", "P10"),
			Cycles:    8, ExecShare: 0.55, OpenShare: 0.28, OpenRate: 150, ClosedPerSecond: 40,
			SetupReps: 9,
		},
		{
			Name: "t9_light",
			Exec: append(t9(32, "P4", "P7", "P10"), t9(64, "P4", "P7", "P10")...), RunsPerRound: 5,
			AOT:       t9(32, "P4", "P7", "P10"),
			FixedDocs: t9(32, "P4", "P7", "P10"),
			Cycles:    8, ExecShare: 0.35, OpenShare: 0.28, OpenRate: 150, ClosedPerSecond: 40,
			SetupReps: 9,
		},
		{
			Name: "serve_warm",
			Exec: t9(32, "P1", "P2", "P3"), RunsPerRound: 5,
			AOT:    t9(32, "P3"),
			Cycles: 8, ExecShare: 0.08, OpenShare: 0.50, OpenRate: 150, ClosedPerSecond: 140,
			SetupReps: 5,
		},
		{
			Name: "serve_cold", Cold: true,
			Exec: t9(32, "P5", "P8", "P9"), RunsPerRound: 5,
			AOT:    t9(32, "P9"),
			Cycles: 6, ExecShare: 0.08, OpenShare: 0.50, OpenRate: 30, ClosedPerSecond: 16,
			SetupReps: 2,
		},
	}
}

// ScenarioByName finds a workload.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("unknown workload %q", name)
}

// Slices returns how many cycles a run of the given scale makes and
// how many requests each cycle's open-loop and closed-loop slice sends.
func (s Scenario) Slices(sz Scale) (cycles, open, closed int) {
	cycles = sz.Reps(s.Cycles, 1)
	open = max(int(s.OpenRate*s.OpenShare*sz.Seconds)/cycles, 2*WarmDocs)
	closed = max(int(s.ClosedPerSecond*sz.Seconds)/cycles, 2*WarmDocs)
	return cycles, open, closed
}

// DocMembers returns the documents of a run: the fixed ones, a drawn
// warm corpus, or one drawn document per request after ColdPrime
// priming ones.
func (s Scenario) DocMembers(seed int64, sz Scale) []Member {
	switch {
	case s.FixedDocs != nil:
		return s.FixedDocs
	case s.Cold:
		cycles, open, closed := s.Slices(sz)
		return Draw(seed, len(ColdPriming(sz))+cycles*(open+closed))
	default:
		return Draw(seed, WarmDocs)
	}
}

// Orders returns, per cycle, the document index of each open-loop and
// closed-loop request. A cold run walks the corpus behind its priming
// documents once; a warm run replays its documents in seeded shuffled
// rounds, so every document is requested equally often and only the
// order depends on the seed.
func (s Scenario) Orders(seed int64, sz Scale, docs int) (open, closed [][]int) {
	cycles, no, nc := s.Slices(sz)
	all := make([]int, cycles*(no+nc))
	if s.Cold {
		for i := range all {
			all[i] = len(ColdPriming(sz)) + i
		}
	} else {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < len(all); i += docs {
			copy(all[i:], r.Perm(docs))
		}
	}
	for c := 0; c < cycles; c++ {
		at := c * (no + nc)
		open, closed = append(open, all[at:at+no]), append(closed, all[at+no:at+no+nc])
	}
	return open, closed
}
