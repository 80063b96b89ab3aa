package scop

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/isl/aff"
)

// JSON interchange format for analysis-only SCoPs: a stable, explicit
// description of arrays, statements, symbolic domains, and affine
// accesses, so SCoPs can be exported from one tool and re-imported by
// another (or checked into tests as goldens). Executable bodies are
// not serialized; attach them afterwards (e.g. interp.Programify).

type jsonSCoP struct {
	Name   string      `json:"name"`
	Arrays []jsonArray `json:"arrays"`
	Stmts  []jsonStmt  `json:"statements"`
}

type jsonArray struct {
	Name string `json:"name"`
	Dim  int    `json:"dim"`
}

type jsonStmt struct {
	Name   string       `json:"name"`
	Bounds []jsonBound  `json:"bounds"`
	Write  *jsonAccess  `json:"write,omitempty"`
	Reads  []jsonAccess `json:"reads,omitempty"`
}

type jsonBound struct {
	Lo jsonExpr `json:"lo"`
	Hi jsonExpr `json:"hi"`
}

type jsonAccess struct {
	Array        string     `json:"array"`
	Index        []jsonExpr `json:"index"`
	MayOverwrite bool       `json:"mayOverwrite,omitempty"`
}

type jsonExpr struct {
	NVars  int       `json:"nvars"`
	Const  int       `json:"const,omitempty"`
	Coeffs []int     `json:"coeffs,omitempty"`
	Divs   []jsonDiv `json:"divs,omitempty"`
}

type jsonDiv struct {
	Coef  int      `json:"coef"`
	Inner jsonExpr `json:"inner"`
	Den   int      `json:"den"`
}

func exprToJSON(e aff.Expr) jsonExpr {
	je := jsonExpr{NVars: e.NVars, Const: e.Const, Coeffs: e.Coeffs}
	for _, d := range e.Divs {
		je.Divs = append(je.Divs, jsonDiv{Coef: d.Coef, Inner: exprToJSON(d.Inner), Den: d.Den})
	}
	return je
}

// exprFromJSON rebuilds one quasi-affine expression, enforcing the
// invariants aff assumes rather than checks on every evaluation: a
// coefficient vector that is absent or has one entry per variable,
// positive floor-division denominators, and div numerators over the
// same variables as the expression that holds them.
func exprFromJSON(je jsonExpr) (aff.Expr, error) {
	if n := len(je.Coeffs); n != 0 && n != je.NVars {
		return aff.Expr{}, fmt.Errorf("expression has %d coefficients over %d variables", n, je.NVars)
	}
	e := aff.Expr{NVars: je.NVars, Const: je.Const}
	if len(je.Coeffs) != 0 {
		e.Coeffs = je.Coeffs
	}
	for _, d := range je.Divs {
		if d.Den < 1 {
			return aff.Expr{}, fmt.Errorf("floor division by %d, want a denominator >= 1", d.Den)
		}
		if d.Inner.NVars != je.NVars {
			return aff.Expr{}, fmt.Errorf("floor division numerator over %d variables inside an expression over %d",
				d.Inner.NVars, je.NVars)
		}
		inner, err := exprFromJSON(d.Inner)
		if err != nil {
			return aff.Expr{}, err
		}
		e.Divs = append(e.Divs, aff.DivTerm{Coef: d.Coef, Inner: inner, Den: d.Den})
	}
	return e, nil
}

// ToJSON serializes the SCoP's polyhedral description.
func ToJSON(sc *SCoP) ([]byte, error) {
	out := jsonSCoP{Name: sc.Name}
	names := make([]string, 0, len(sc.Arrays))
	for name := range sc.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out.Arrays = append(out.Arrays, jsonArray{Name: name, Dim: sc.Arrays[name].Dim})
	}
	for _, s := range sc.Stmts {
		if s.Spec == nil {
			return nil, fmt.Errorf("scop: statement %q has no symbolic domain to serialize", s.Name)
		}
		if len(s.Spec.Constraints) != 0 {
			return nil, fmt.Errorf("scop: statement %q has extra domain constraints, not supported by the JSON format", s.Name)
		}
		js := jsonStmt{Name: s.Name}
		for _, b := range s.Spec.Bounds {
			js.Bounds = append(js.Bounds, jsonBound{Lo: exprToJSON(b.Lo), Hi: exprToJSON(b.Hi)})
		}
		if s.Write != nil {
			js.Write = &jsonAccess{
				Array:        s.Write.Array(),
				Index:        exprsToJSON(s.Write.Access.Exprs),
				MayOverwrite: s.Write.MayOverwrite,
			}
		}
		for i := range s.Reads {
			js.Reads = append(js.Reads, jsonAccess{
				Array: s.Reads[i].Array(),
				Index: exprsToJSON(s.Reads[i].Access.Exprs),
			})
		}
		out.Stmts = append(out.Stmts, js)
	}
	return json.MarshalIndent(out, "", "  ")
}

func exprsToJSON(es []aff.Expr) []jsonExpr {
	out := make([]jsonExpr, len(es))
	for i, e := range es {
		out[i] = exprToJSON(e)
	}
	return out
}

// FromJSON rebuilds an analysis-only SCoP from its JSON description.
// It accepts both the bare legacy document and the scop/v1 envelope
// (see ToJSONEnveloped); an envelope with an unrecognized schema fails
// with *SchemaError.
func FromJSON(data []byte) (*SCoP, error) {
	data, err := unwrapEnvelope(data)
	if err != nil {
		return nil, err
	}
	var in jsonSCoP
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("scop: bad JSON: %w", err)
	}
	b := NewBuilder(in.Name)
	for _, arr := range in.Arrays {
		b.Array(arr.Name, arr.Dim)
	}
	for _, js := range in.Stmts {
		bounds := make([]aff.LoopBound, len(js.Bounds))
		for d, jb := range js.Bounds {
			if jb.Lo.NVars != d || jb.Hi.NVars != d {
				return nil, fmt.Errorf("scop: statement %q bound %d has arity lo=%d hi=%d, want %d",
					js.Name, d, jb.Lo.NVars, jb.Hi.NVars, d)
			}
			lo, err := exprFromJSON(jb.Lo)
			if err != nil {
				return nil, fmt.Errorf("scop: statement %q bound %d: %w", js.Name, d, err)
			}
			hi, err := exprFromJSON(jb.Hi)
			if err != nil {
				return nil, fmt.Errorf("scop: statement %q bound %d: %w", js.Name, d, err)
			}
			bounds[d] = aff.LoopBound{Lo: lo, Hi: hi}
		}
		sb := b.Stmt(js.Name, aff.NewDomain(js.Name, bounds...))
		if js.Write != nil {
			idx, err := exprsFromJSON(js.Write.Index)
			if err != nil {
				return nil, fmt.Errorf("scop: statement %q write: %w", js.Name, err)
			}
			if js.Write.MayOverwrite {
				sb.WritesOverwriting(js.Write.Array, idx...)
			} else {
				sb.Writes(js.Write.Array, idx...)
			}
		}
		for _, rd := range js.Reads {
			idx, err := exprsFromJSON(rd.Index)
			if err != nil {
				return nil, fmt.Errorf("scop: statement %q read of %q: %w", js.Name, rd.Array, err)
			}
			sb.Reads(rd.Array, idx...)
		}
	}
	return b.Build()
}

func exprsFromJSON(jes []jsonExpr) ([]aff.Expr, error) {
	out := make([]aff.Expr, len(jes))
	for i, je := range jes {
		e, err := exprFromJSON(je)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}
