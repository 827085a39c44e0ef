package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"clockrlc/internal/cliobs"
)

func baseConfig() config {
	return config{
		levels: 1, span: 2000, wsig: 10, wgnd: 5, space: 1,
		shield: "coplanar", tr: 50, rdrv: 40, cin: 50,
		imbalance: 2, mode: "both", lookupPol: "extrapolate",
		ckptStages: 16, ckptInterval: 30 * time.Second,
	}
}

func TestRunSmallTree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tables and simulates a tree")
	}
	if err := run(context.Background(), baseConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadShield(t *testing.T) {
	cfg := baseConfig()
	cfg.shield = "bogus"
	if err := run(context.Background(), cfg); err == nil {
		t.Error("accepted unknown shielding")
	}
}

func TestRunRejectsBadMode(t *testing.T) {
	cfg := baseConfig()
	cfg.mode = "rlcc"
	if err := run(context.Background(), cfg); err == nil {
		t.Error("accepted unknown mode")
	}
}

func TestRunResumeNeedsCheckpointDir(t *testing.T) {
	cfg := baseConfig()
	cfg.resume = true
	if err := run(context.Background(), cfg); err == nil {
		t.Error("accepted -resume without -checkpoint")
	}
}

// Degenerate flag values are refused up front with cliobs.ErrBadFlag, and
// the binary exits 2 for them instead of panicking or running.
func TestRunRejectsDegenerateFlags(t *testing.T) {
	cases := []struct {
		flag  string
		value string
		set   func(*config)
	}{
		{"-levels", "0", func(c *config) { c.levels = 0 }},
		{"-levels", "-1", func(c *config) { c.levels = -1 }},
		{"-imbalance-spread", "-5", func(c *config) { c.imbalanceSpread = -5 }},
		{"-samples", "-1", func(c *config) { c.samples = -1 }},
		{"-shield", "bogus", func(c *config) { c.shield = "bogus" }},
		{"-mode", "rlcc", func(c *config) { c.mode = "rlcc" }},
		{"-tr", "0", func(c *config) { c.tr = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			cfg := baseConfig()
			tc.set(&cfg)
			err := run(context.Background(), cfg)
			if !errors.Is(err, cliobs.ErrBadFlag) || !strings.Contains(err.Error(), tc.flag+" ") {
				t.Fatalf("run = %v, want cliobs.ErrBadFlag naming %s", err, tc.flag)
			}
			cmd := exec.Command(binary(t), tc.flag+"="+tc.value)
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

// TestImbalancedTreeStatsMatchGolden pins the dedup-defeating tree's
// %.17g stats bit for bit, in RC and RLC mode: every field before
// wall_s= must equal testdata/imbalanced_stats.golden exactly.
func TestImbalancedTreeStatsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tables and simulates a level-4 tree in a subprocess")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "imbalanced_stats.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(binary(t), "-levels", "4", "-imbalance-spread", "256").Output()
	if err != nil {
		t.Fatalf("treesim: %v", err)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "stats ") {
			head, _, _ := strings.Cut(line, " wall_s=")
			got = append(got, head)
		}
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d stats lines, golden has %d; output:\n%s", len(got), len(wantLines), out)
	}
	for i := range wantLines {
		if got[i] != wantLines[i] {
			t.Errorf("stats line %d:\n got %s\nwant %s", i, got[i], wantLines[i])
		}
	}
}

func TestPeakRSSReported(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/self/status is linux-only")
	}
	if peakRSSBytes() <= 0 {
		t.Error("peakRSSBytes returned nothing on linux")
	}
}

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// binary builds treesim once per test run.
func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "treesim-test-*")
		if err != nil {
			buildErr = err
			return
		}
		buildPath = filepath.Join(dir, "treesim")
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

// statsLine parses the machine-readable "stats mode=... k=v ..." line
// for the given mode out of a treesim stdout dump.
func statsLine(t *testing.T, out, mode string) map[string]string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "stats mode="+mode+" ") && line != "stats mode="+mode {
			continue
		}
		kv := map[string]string{}
		for _, f := range strings.Fields(line)[1:] {
			if k, v, ok := strings.Cut(f, "="); ok {
				kv[k] = v
			}
		}
		return kv
	}
	t.Fatalf("no stats line for mode %s in output:\n%s", mode, out)
	return nil
}

func intField(t *testing.T, kv map[string]string, key string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(kv[key], 10, 64)
	if err != nil {
		t.Fatalf("stats field %s = %q: %v", key, kv[key], err)
	}
	return v
}

// ckptFiles lists the checkpoint records under a -checkpoint dir
// (they live one job-key subdirectory down).
func ckptFiles(dir string) []string {
	matches, _ := filepath.Glob(filepath.Join(dir, "*", "ckpt-*.ck"))
	return matches
}

// TestKillAndResumeBitIdenticalSkew is the end-to-end crash drill the
// tentpole exists for: a run is SIGKILLed mid-analysis, its newest
// checkpoint is additionally bit-rotted, and the resumed run must
// still finish with bit-identical skew while re-simulating strictly
// fewer stages than a cold run.
func TestKillAndResumeBitIdenticalSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tables, simulates trees in subprocesses")
	}
	bin := binary(t)
	work := t.TempDir()
	cache := filepath.Join(work, "cache")
	args := func(ckDir string, extra ...string) []string {
		return append([]string{
			"-levels", "4", "-mode", "rlc", "-imbalance-spread", "256",
			"-cache", cache, "-checkpoint", ckDir, "-checkpoint-stages", "1",
		}, extra...)
	}

	// Cold reference run (also warms the table cache).
	coldDir := filepath.Join(work, "ck-cold")
	out, err := exec.Command(bin, args(coldDir)...).CombinedOutput()
	if err != nil {
		t.Fatalf("cold run: %v\n%s", err, out)
	}
	cold := statsLine(t, string(out), "rlc")
	coldSims := intField(t, cold, "sims_this_run")
	if coldSims < 5 {
		t.Fatalf("cold run simulated only %d stages; the kill window is too small", coldSims)
	}
	if dedup := intField(t, cold, "deduped"); dedup == 0 {
		t.Error("cold run deduped nothing; memoization is off?")
	}

	// Victim run: SIGKILL once at least two checkpoint generations
	// exist (so corrupting the newest still leaves a fallback).
	killDir := filepath.Join(work, "ck-kill")
	victim := exec.Command(bin, args(killDir)...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- victim.Wait() }()
	deadline := time.Now().Add(3 * time.Minute)
	for len(ckptFiles(killDir)) < 2 {
		select {
		case werr := <-done:
			t.Fatalf("victim finished before the kill (%v); raise the workload", werr)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			<-done
			t.Fatal("no two checkpoint generations appeared before the deadline")
		}
	}
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	werr := <-done
	ee, ok := werr.(*exec.ExitError)
	if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("victim did not die by SIGKILL: %v (it may have finished before the kill; raise the workload)", werr)
	}
	files := ckptFiles(killDir)
	if len(files) < 2 {
		t.Fatalf("only %d checkpoint generations survived the kill", len(files))
	}

	// Bit-rot the newest surviving generation: resume must detect it,
	// count it, and fall back to the older one.
	newestPath := files[0]
	for _, f := range files[1:] {
		if filepath.Base(f) > filepath.Base(newestPath) {
			newestPath = f
		}
	}
	data, err := os.ReadFile(newestPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(newestPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	out, err = exec.Command(bin, args(killDir, "-resume")...).CombinedOutput()
	if err != nil {
		t.Fatalf("resumed run: %v\n%s", err, out)
	}
	res := statsLine(t, string(out), "rlc")
	if res["skew_s"] != cold["skew_s"] {
		t.Errorf("resumed skew %s != cold skew %s (must be bit-identical)", res["skew_s"], cold["skew_s"])
	}
	for _, key := range []string{"min_s", "max_s", "mean_s", "min_leaf", "max_leaf", "leaves", "simulated", "deduped"} {
		if res[key] != cold[key] {
			t.Errorf("resumed %s = %s, cold = %s", key, res[key], cold[key])
		}
	}
	if got := intField(t, res, "sims_this_run"); got >= coldSims {
		t.Errorf("resumed run re-simulated %d stages, cold run needed %d — nothing was saved", got, coldSims)
	}
	if intField(t, res, "resumed_seq") == 0 {
		t.Error("resumed run reports no checkpoint sequence")
	}
	if intField(t, res, "ckpt_resumes") == 0 {
		t.Error("ckpt.resumes counter did not advance")
	}
	if intField(t, res, "ckpt_corrupt") == 0 {
		t.Error("bit-rotted newest checkpoint was not counted as corrupt")
	}
}
