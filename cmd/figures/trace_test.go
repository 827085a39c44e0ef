package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"clockrlc/internal/obs"
)

// Every span of a traced experiment that builds tables, extracts and
// simulates descends from the one figures root span: the experiment
// runners take the session context instead of starting their own.
func TestTraceHasOneRoot(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "figures")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	trace := filepath.Join(dir, "trace.jsonl")
	if out, err := exec.Command(bin, "-exp", "fig23", "-trace", trace).CombinedOutput(); err != nil {
		t.Fatalf("figures: %v\n%s", err, out)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.BuildTrace(events)
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "figures" || len(tr.Orphans) != 0 {
		t.Fatalf("%d roots (want 1, named figures), %d orphans", len(tr.Roots), len(tr.Orphans))
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"table.build", "core.extract", "sim.transient"} {
		if !names[want] {
			t.Errorf("trace has no %s span", want)
		}
	}
}
