package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"clockrlc/internal/cliobs"
	"clockrlc/internal/obs"
)

func TestRunSweepsWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tables and simulates candidates")
	}
	if err := run(context.Background(), 2000, 4, 2, 30, 40, 50, 0.8, 2.4, 3, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsFewCandidates(t *testing.T) {
	if err := run(context.Background(), 2000, 4, 2, 30, 40, 50, 0.8, 2.4, 1, true); err == nil {
		t.Error("accepted a single candidate")
	}
}

// Degenerate axis and numeric flags are refused up front with
// cliobs.ErrBadFlag (before any table build), and the binary exits 2
// for them instead of panicking in table.LogAxis or failing later.
func TestRunRejectsDegenerateFlags(t *testing.T) {
	type args struct {
		length, pitch, wgnd, rdrv, cload, tr, wmin, wmax float64
		n                                                int
	}
	cases := []struct {
		flag string
		argv []string
		set  func(*args)
	}{
		{"-len", []string{"-len", "0"}, func(a *args) { a.length = 0 }},
		{"-pitch", []string{"-pitch", "0"}, func(a *args) { a.pitch = 0 }},
		{"-pitch", []string{"-pitch", "0.05"}, func(a *args) { a.pitch = 0.05 }},
		{"-wmin", []string{"-wmin", "0"}, func(a *args) { a.wmin = 0 }},
		{"-wmax", []string{"-wmin", "5", "-wmax", "2"}, func(a *args) { a.wmin, a.wmax = 5, 2 }},
		{"-n", []string{"-n", "1"}, func(a *args) { a.n = 1 }},
		{"-tr", []string{"-tr", "0"}, func(a *args) { a.tr = 0 }},
		{"-rdrv", []string{"-rdrv", "0"}, func(a *args) { a.rdrv = 0 }},
		{"-cload", []string{"-cload", "-5"}, func(a *args) { a.cload = -5 }},
		{"-wgnd", []string{"-wgnd", "0"}, func(a *args) { a.wgnd = 0 }},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.argv, "="), func(t *testing.T) {
			a := args{length: 4000, pitch: 4, wgnd: 2, rdrv: 30, cload: 40, tr: 50, wmin: 0.7, wmax: 2.6, n: 7}
			tc.set(&a)
			err := run(context.Background(), a.length, a.pitch, a.wgnd, a.rdrv, a.cload, a.tr, a.wmin, a.wmax, a.n, true)
			if !errors.Is(err, cliobs.ErrBadFlag) || !strings.Contains(err.Error(), tc.flag+" ") {
				t.Fatalf("run = %v, want ErrBadFlag naming %s", err, tc.flag)
			}
			cmd := exec.Command(binary(t), tc.argv...)
			out, err := cmd.CombinedOutput()
			if code := cmd.ProcessState.ExitCode(); code != cliobs.ExitUsage {
				t.Fatalf("exit code %d (%v), want %d; output:\n%s", code, err, cliobs.ExitUsage, out)
			}
			if !strings.Contains(string(out), "bad flag: "+tc.flag+" ") || strings.Contains(string(out), "panic:") {
				t.Errorf("stderr does not name %s cleanly:\n%s", tc.flag, out)
			}
		})
	}
}

// Every span of a traced run descends from the one wiresize root span:
// the per-candidate extractions and transients are threaded through
// the session context.
func TestTraceHasOneRoot(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	cmd := exec.Command(binary(t), "-len", "2000", "-n", "3", "-trace", trace)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("wiresize: %v\n%s", err, out)
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
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "wiresize" || len(tr.Orphans) != 0 {
		t.Fatalf("%d roots (want 1, named wiresize), %d orphans", len(tr.Roots), len(tr.Orphans))
	}
	if len(tr.Spans) < 2 {
		t.Fatalf("trace holds %d spans; want the run's extraction spans under the root", len(tr.Spans))
	}
}

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// binary builds wiresize once per test run.
func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "wiresize-test-*")
		if err != nil {
			buildErr = err
			return
		}
		buildPath = filepath.Join(dir, "wiresize")
		out, err := exec.Command("go", "build", "-o", buildPath, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildPath
}
