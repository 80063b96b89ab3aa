package scop

import (
	"strings"
	"testing"

	"repro/internal/isl/aff"
)

func buildJSONFixture(t *testing.T) *SCoP {
	t.Helper()
	b := NewBuilder("fixture")
	b.Array("A", 2).Array("B", 1).Array("H", 1)
	b.Stmt("S", aff.NewDomain("S",
		aff.ConstBound(0, 0, 6),
		aff.LoopBound{Lo: aff.Const(1, 0), Hi: aff.Linear(1, 1)}, // triangular
	)).
		Writes("A", aff.Var(2, 0), aff.Var(2, 1)).
		Reads("A", aff.Var(2, 0), aff.Linear(1, 0, 1))
	b.Stmt("T", aff.RectDomain("T", 6)).
		Writes("B", aff.Var(1, 0)).
		Reads("A", aff.Var(1, 0), aff.Const(1, 0))
	b.Stmt("U", aff.RectDomain("U", 12)).
		WritesOverwriting("H", aff.FloorDiv(aff.Var(1, 0), 3)).
		Reads("B", aff.FloorDiv(aff.Var(1, 0), 2))
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestJSONRoundTrip(t *testing.T) {
	sc := buildJSONFixture(t)
	data, err := ToJSON(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatalf("FromJSON: %v\n%s", err, data)
	}
	if back.Name != sc.Name || len(back.Stmts) != len(sc.Stmts) || len(back.Arrays) != len(sc.Arrays) {
		t.Fatal("shape differs after round trip")
	}
	for i, s := range sc.Stmts {
		got := back.Stmts[i]
		if got.Name != s.Name {
			t.Fatalf("stmt %d name %q != %q", i, got.Name, s.Name)
		}
		if !got.Domain.Equal(s.Domain) {
			t.Fatalf("stmt %s domain differs after round trip", s.Name)
		}
		if (got.Write == nil) != (s.Write == nil) {
			t.Fatalf("stmt %s write presence differs", s.Name)
		}
		if s.Write != nil {
			if !got.Write.Rel.Equal(s.Write.Rel) {
				t.Fatalf("stmt %s write relation differs", s.Name)
			}
			if got.Write.MayOverwrite != s.Write.MayOverwrite {
				t.Fatalf("stmt %s MayOverwrite flag lost", s.Name)
			}
		}
		if len(got.Reads) != len(s.Reads) {
			t.Fatalf("stmt %s read count differs", s.Name)
		}
		for k := range s.Reads {
			if !got.Reads[k].Rel.Equal(s.Reads[k].Rel) {
				t.Fatalf("stmt %s read %d differs", s.Name, k)
			}
		}
	}
	// Serialization is deterministic.
	data2, err := ToJSON(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("JSON not canonical across round trips")
	}
}

// MalformedExprDocs are one-statement documents whose expressions break
// an invariant the aff layer assumes: each used to panic inside
// FromJSON rather than return an error. Exported for FuzzFromJSON's
// seed corpus.
var MalformedExprDocs = map[string]string{
	"zeroDenInIndex": `{"name":"x","arrays":[{"name":"A","dim":1}],"statements":[{"name":"S",` +
		`"bounds":[{"lo":{"nvars":0},"hi":{"nvars":0,"const":4}}],` +
		`"write":{"array":"A","index":[{"nvars":1,"divs":[{"coef":1,"inner":{"nvars":1,"coeffs":[1]},"den":0}]}]}}]}`,
	"zeroDenInBound": `{"name":"x","arrays":[{"name":"A","dim":1}],"statements":[{"name":"S",` +
		`"bounds":[{"lo":{"nvars":0},"hi":{"nvars":0,"divs":[{"coef":1,"inner":{"nvars":0,"const":8},"den":0}]}}],` +
		`"write":{"array":"A","index":[{"nvars":1,"coeffs":[1]}]}}]}`,
	"divInnerArity": `{"name":"x","arrays":[{"name":"A","dim":1}],"statements":[{"name":"S",` +
		`"bounds":[{"lo":{"nvars":0},"hi":{"nvars":0,"const":4}}],` +
		`"write":{"array":"A","index":[{"nvars":1,"divs":[{"coef":1,"inner":{"nvars":4,"coeffs":[1,0,0,0]},"den":2}]}]}}]}`,
	"emptyCoeffs": `{"name":"x","arrays":[{"name":"A","dim":1}],"statements":[{"name":"S",` +
		`"bounds":[{"lo":{"nvars":0},"hi":{"nvars":0,"const":4}}],` +
		`"write":{"array":"A","index":[{"nvars":1,"coeffs":[]}]}}]}`,
}

func TestFromJSONErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":   `{]`,
		"badArity":  `{"name":"x","arrays":[{"name":"A","dim":1}],"statements":[{"name":"S","bounds":[{"lo":{"nvars":1},"hi":{"nvars":0,"const":4}}],"write":{"array":"A","index":[{"nvars":1,"coeffs":[1]}]}}]}`,
		"undeclArr": `{"name":"x","arrays":[],"statements":[{"name":"S","bounds":[{"lo":{"nvars":0},"hi":{"nvars":0,"const":4}}],"write":{"array":"A","index":[{"nvars":1,"coeffs":[1]}]}}]}`,
	}
	for name, src := range MalformedExprDocs {
		cases[name] = src
	}
	for name, src := range cases {
		if _, err := FromJSON([]byte(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestToJSONRequiresSpec(t *testing.T) {
	sc := buildJSONFixture(t)
	sc.Stmts[0].Spec = nil
	if _, err := ToJSON(sc); err == nil || !strings.Contains(err.Error(), "symbolic domain") {
		t.Fatalf("err = %v", err)
	}
}
