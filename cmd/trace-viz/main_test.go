package main

import (
	"fmt"
	"runtime"
	"testing"
)

func TestBuildKernel(t *testing.T) {
	cases := []struct {
		name string
		want string
	}{
		{"listing1", "listing1"},
		{"listing3", "listing3"},
		{"P3", "P3"},
		{"2mm", "2mm"},
		{"3gmmt", "3gmmt"},
		{"4mmt", "4mmt"},
		{"5mm", "5mm"}, // chains beyond the paper's 4 are supported
	}
	for _, c := range cases {
		p, err := buildKernel(c.name, 10, 2, 12)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if p.Name != c.want {
			t.Errorf("%s: program name %q", c.name, p.Name)
		}
	}
	for _, bad := range []string{"", "2xx", "P99", "Pmm"} {
		if _, err := buildKernel(bad, 10, 2, 12); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestFormatFlagParsing(t *testing.T) {
	for _, ok := range []string{"svg", "json"} {
		if err := checkFormat(ok); err != nil {
			t.Errorf("checkFormat(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", "SVG", "perfetto", "html"} {
		if err := checkFormat(bad); err == nil {
			t.Errorf("checkFormat(%q) accepted", bad)
		}
	}
	if got := outputName("", "json"); got != "trace.json" {
		t.Errorf("outputName default = %q", got)
	}
	if got := outputName("", "svg"); got != "trace.svg" {
		t.Errorf("outputName default = %q", got)
	}
	if got := outputName("my.out", "json"); got != "my.out" {
		t.Errorf("explicit -o not honored: %q", got)
	}
}

func TestSummaryResolvesWorkers(t *testing.T) {
	for workers, want := range map[int]int{0: runtime.GOMAXPROCS(0), -2: runtime.GOMAXPROCS(0), 3: 3} {
		if got, line := summary("t.svg", "listing3", workers), fmt.Sprintf("wrote t.svg (listing3, %d workers)", want); got != line {
			t.Errorf("workers=%d: %q, want %q", workers, got, line)
		}
	}
}
