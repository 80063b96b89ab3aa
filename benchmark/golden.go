package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"repro/benchmark/internal/gen"
	"repro/polypipe"
)

// goldenSeed is the seed whose drawn documents golden.json pins.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden pins what must not change from commit to commit: the
// sequential result hash of every exec and AOT member (by member name
// and body kind) and the (statement, blocks) summary of every fixed
// document and of the warm corpus drawn from goldenSeed. A run computes
// its references itself — the sequential executor, detection on the
// builder's SCoP — and additionally checks them against whatever
// golden.json pins.
type golden struct {
	Seed      int64                   `json:"seed"`
	Hashes    map[string]string       `json:"hashes"` // 16 hex digits
	Summaries map[string][]stmtBlocks `json:"summaries"`
}

// checkHash counts hash against what golden.json pins for key, if it
// pins anything.
func (g *golden) checkHash(res *gen.Result, key string, hash uint64) {
	if pinned, ok := g.Hashes[key]; ok {
		res.Op(hexHash(hash) == pinned, "%s: sequential hash %s, golden.json pins %s", key, hexHash(hash), pinned)
	}
}

func hexHash(h uint64) string { return fmt.Sprintf("%016x", h) }

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// updateGolden regenerates golden.json at path from the sequential
// executor and direct detection only; pipelined, emitted and served
// results never feed it.
func updateGolden(path string) error {
	g := golden{Seed: goldenSeed, Hashes: map[string]string{}, Summaries: map[string][]stmtBlocks{}}
	for _, sc := range gen.Scenarios() {
		pin := func(m gen.Member, heavy bool) error {
			ref, err := polypipe.NewSession().Run(polypipe.ModeSequential, m.Program(heavy))
			g.Hashes[m.Key(heavy)] = hexHash(ref.Hash)
			return err
		}
		for _, m := range sc.Exec {
			if err := pin(m, sc.Heavy); err != nil {
				return err
			}
		}
		for _, m := range sc.AOT {
			if err := pin(m, false); err != nil {
				return err
			}
		}
		if sc.Cold {
			continue
		}
		for _, m := range sc.DocMembers(goldenSeed, gen.Scale{}) {
			sum, err := summaryOf(m)
			if err != nil {
				return err
			}
			g.Summaries[m.Name] = sum
		}
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
