package polypipe_test

import (
	"testing"

	"repro/internal/kernels"
	"repro/polypipe"
)

// TestCrossBackendEquivalence: on every Table 9 kernel the pipelined
// execution and the simulator's cost-measurement pass, which replays
// the same compiled task-program IR, must leave bit-identical array
// state to the sequential reference. Run under -race this also
// exercises the chain executor's claims and hand-overs. The emitted
// back end is held to the same hashes by gogen's differential test.
func TestCrossBackendEquivalence(t *testing.T) {
	for _, spec := range kernels.Table9 {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := kernels.BuildTable9(spec, 8, 2)
			s := polypipe.NewSession(polypipe.WithWorkers(4))
			seq, err := s.Run(polypipe.ModeSequential, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []polypipe.Mode{polypipe.ModePipelined} {
				res, err := s.Run(mode, p)
				if err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				if res.Hash != seq.Hash {
					t.Errorf("%v: hash %x != sequential %x", mode, res.Hash, seq.Hash)
				}
			}
			// The simulator measures per-task cost by replaying the same
			// compiled IR in a topological order; it documents leaving
			// the program reset, and an execution after it must still be
			// bit-identical to the reference.
			if _, err := s.Simulate(p, polypipe.SimConfig{Procs: []int{4}}); err != nil {
				t.Fatal(err)
			}
			p.Reset()
			reset := p.Hash()
			if _, err := s.Simulate(p, polypipe.SimConfig{Procs: []int{2, 4}}); err != nil {
				t.Fatal(err)
			}
			if got := p.Hash(); got != reset {
				t.Errorf("simulate left non-reset state: hash %x != %x", got, reset)
			}
			res, err := s.Run(polypipe.ModePipelined, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Hash != seq.Hash {
				t.Errorf("pipelined after simulate: hash %x != sequential %x", res.Hash, seq.Hash)
			}
		})
	}
}
