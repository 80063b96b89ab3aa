package gogen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzzscop"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/scop"
)

// The emission contract: the emitted source is a pure function of the
// detection result, so a refactor of task compilation or lowering must
// leave it unchanged byte for byte. Each corpus program is emitted at
// two workers with the default pass pipeline and with Passes "none"
// (both embed the same task DAG, the chain program's, as CSR arrays),
// and the SHA-256 of every output is compared against the committed
// file.
//
// Regenerate it with:
//
//	go test ./internal/gogen -run TestEmitDigests -update-emit-digests

var updateEmitDigests = flag.Bool("update-emit-digests", false,
	"rewrite testdata/emit_digests.json from this build's emitted source")

const emitDigestsGolden = "testdata/emit_digests.json"

// emitDigestCorpus is Table 9 P1–P10 at n = 16, 3mm, and three random
// SCoPs with shifted (partly negative) loop bounds.
func emitDigestCorpus() (names []string, scs []*scop.SCoP) {
	for _, spec := range kernels.Table9 {
		names = append(names, spec.Name+"_n16")
		scs = append(scs, kernels.BuildTable9(spec, 16, 1).SCoP)
	}
	names = append(names, "3mm")
	scs = append(scs, kernels.MMChain(3, 6, kernels.MM).SCoP)
	for seed := int64(1); seed <= 3; seed++ {
		names = append(names, fmt.Sprintf("fuzz_shifted_%d", seed))
		scs = append(scs, fuzzscop.Random(rand.New(rand.NewSource(seed)), fuzzscop.Config{MaxNests: 4, Shifted: true}))
	}
	return names, scs
}

func TestEmitDigests(t *testing.T) {
	got := make(map[string]string)
	names, scs := emitDigestCorpus()
	for k, sc := range scs {
		info, err := core.Detect(sc, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", names[k], err)
		}
		for _, passes := range []string{"", "none"} {
			var b strings.Builder
			if err := EmitWith(&b, info, EmitOptions{Workers: 2, Passes: passes}); err != nil {
				t.Fatalf("%s passes=%q: %v", names[k], passes, err)
			}
			key := names[k] + "/passes=all"
			if passes == "none" {
				key = names[k] + "/passes=none"
			}
			sum := sha256.Sum256([]byte(b.String()))
			got[key] = hex.EncodeToString(sum[:])
		}
	}

	if *updateEmitDigests {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(emitDigestsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(emitDigestsGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d emission digests to %s", len(got), emitDigestsGolden)
		return
	}

	data, err := os.ReadFile(emitDigestsGolden)
	if err != nil {
		t.Fatalf("reading digests (run with -update-emit-digests to generate): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("digest file has %d entries, corpus has %d", len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: missing from digest file (regenerate with -update-emit-digests)", key)
			continue
		}
		if g != w {
			t.Errorf("%s: emitted source digest %s, committed %s", key, g, w)
		}
	}
}

// TestPassSubsetsEmbedDAG: under every subset of the passes, the
// emitted source embeds the task DAG and carries no dependency-address
// table or start-up resolver, and the IR evaluator reproduces the
// interpreter's hash on every program of the digest corpus.
func TestPassSubsetsEmbedDAG(t *testing.T) {
	names, scs := emitDigestCorpus()
	all := ir.Passes()
	for k, sc := range scs {
		ref := interp.Programify(sc)
		ref.Reset()
		for _, s := range sc.Stmts {
			for _, iv := range s.Domain.Elements() {
				s.Body(iv)
			}
		}
		want := ref.Hash()
		info, err := core.Detect(sc, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", names[k], err)
		}
		for mask := 0; mask < 1<<len(all); mask++ {
			passes := "none"
			for i, ps := range all {
				if mask&(1<<i) == 0 {
					continue
				}
				if passes == "none" {
					passes = ps.Name
				} else {
					passes += "," + ps.Name
				}
			}
			p, err := Compile(info, EmitOptions{Workers: 2, Passes: passes})
			if err != nil {
				t.Fatalf("%s passes=%s: %v", names[k], passes, err)
			}
			var b strings.Builder
			if err := Print(&b, p); err != nil {
				t.Fatal(err)
			}
			if len(p.Applied) != bits.OnesCount(uint(mask)) {
				t.Fatalf("passes=%s applied %v", passes, p.Applied)
			}
			src := b.String()
			if !strings.Contains(src, "var succOff = []int32{") {
				t.Errorf("%s passes=%s: no embedded task DAG", names[k], passes)
			}
			for _, reject := range []string{"resolveDeps", "depIns"} {
				if strings.Contains(src, reject) {
					t.Errorf("%s passes=%s: emitted source contains %q", names[k], passes, reject)
				}
			}
			if first, second := ir.NewEvaluator(p).RunTwice(); first != want || second != want {
				t.Errorf("%s passes=%s: evaluator hashes %x, %x, interpreter %x", names[k], passes, first, second, want)
			}
		}
	}
}
