package scop_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/fuzzscop"
	"repro/internal/kernels"
	"repro/internal/scop"
)

// maxFuzzConst bounds every number in a fuzzed document. FromJSON's
// cost grows with domain volume, which it does not cap; keeping the
// constants small keeps most inputs quick.
const maxFuzzConst = 64

// FuzzFromJSON: decoding never panics, and every document FromJSON
// accepts survives a ToJSON round trip with its fingerprint unchanged.
// `go test` runs the seed corpus; `make fuzz` runs the fuzzer.
func FuzzFromJSON(f *testing.F) {
	for _, doc := range scop.MalformedExprDocs {
		f.Add([]byte(doc))
	}
	t9, err := kernels.Table9Program("P5", 8, 1)
	if err != nil {
		f.Fatal(err)
	}
	env, err := scop.ToJSONEnveloped(t9.SCoP)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(env)
	random, err := scop.ToJSON(fuzzscop.Random(rand.New(rand.NewSource(1)), fuzzscop.Config{}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(random)

	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		if json.Unmarshal(data, &v) == nil && !smallNumbers(v) {
			t.Skip("constants too large for a quick decode")
		}
		sc, err := scop.FromJSON(data)
		if err != nil {
			return
		}
		out, err := scop.ToJSON(sc)
		if err != nil {
			t.Fatalf("re-encoding a decoded SCoP: %v", err)
		}
		back, err := scop.FromJSON(out)
		if err != nil {
			t.Fatalf("re-decoding ToJSON output: %v\n%s", err, out)
		}
		if got, want := back.Fingerprint(), sc.Fingerprint(); got != want {
			t.Fatalf("fingerprint %v after round trip, want %v\n%s", got, want, out)
		}
	})
}

// smallNumbers reports whether every number in a decoded JSON value is
// at most maxFuzzConst in magnitude.
func smallNumbers(v any) bool {
	switch v := v.(type) {
	case float64:
		return v >= -maxFuzzConst && v <= maxFuzzConst
	case []any:
		for _, e := range v {
			if !smallNumbers(e) {
				return false
			}
		}
	case map[string]any:
		for _, e := range v {
			if !smallNumbers(e) {
				return false
			}
		}
	}
	return true
}
