package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSingleFigureSmallSweep(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "6", "-max", "6"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Fig 6") || !strings.Contains(s, "groups") {
		t.Errorf("output = %q", s)
	}
	if strings.Contains(s, "Fig 7") {
		t.Error("-fig 6 also ran fig 7")
	}
}

func TestRunAllFiguresTinySweep(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-max", "6", "-max-original", "6"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Fig 6", "Fig 7", "Fig 8", "Fig 9", "Fig 10", "policy", "intra-group"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "99", "-max", "4"}, &out); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-max", "0"}, &out); err == nil {
		t.Error("max=0 accepted")
	}
	if err := run([]string{"-max", "65"}, &out); err == nil {
		t.Error("max=65 accepted")
	}
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	// The measuring modes are Go benchmarks or perfbench now.
	for _, mode := range []string{"-recover", "-issue", "-lifecycle", "-repl"} {
		err := run([]string{mode}, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an undefined flag", mode, err)
		}
	}
}

func TestRunCSVFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "6", "-max", "5", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasPrefix(s, "n,groups\n") {
		t.Errorf("csv output = %q", s)
	}
	if strings.Contains(s, "== Fig") {
		t.Error("csv output contains table headers")
	}
	if got := strings.Count(s, "\n"); got != 6 { // header + 5 rows
		t.Errorf("csv lines = %d, want 6", got)
	}
	if err := run([]string{"-format", "weird", "-max", "4"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestRunCSVFig9(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "9", "-max", "3", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "n,records,insert_per_record_ns,") {
		t.Errorf("csv output = %q", out.String())
	}
}

func TestRunFig12(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "12", "-max", "12", "-workers", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "intra-group") || !strings.Contains(s, "speed-up") {
		t.Errorf("output = %q", s)
	}
	out.Reset()
	if err := run([]string{"-fig", "12", "-max", "10", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "n,equations,serial_ns,sharded_ns,workers,speedup\n") {
		t.Errorf("csv output = %q", out.String())
	}
}
