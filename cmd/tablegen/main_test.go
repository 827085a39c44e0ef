package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"clockrlc/internal/cliobs"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

func TestRunBuildsLoadableTables(t *testing.T) {
	out := filepath.Join(t.TempDir(), "set.json")
	err := run(context.Background(), out, "v3", "m6", 2, "cu", "coplanar", 2, 1,
		50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	set, err := table.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if set.Config.Name != "m6/coplanar" {
		t.Errorf("set name %q", set.Config.Name)
	}
	if _, err := set.SelfL(2e-6, 500e-6); err != nil {
		t.Errorf("lookup failed: %v", err)
	}
}

// The tier-1 round-trip gate: tablegen → save → load → compare
// against an in-memory build of the same sweep, bit for bit. Any
// lossy codec change (float formatting, reordered values, dropped
// config) fails here before it can poison a production library.
func TestRoundTripBitForBit(t *testing.T) {
	out := filepath.Join(t.TempDir(), "set.json")
	if err := run(context.Background(), out, "v2", "m6", 2, "cu", "coplanar", 2, 1,
		50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 2, ""); err != nil {
		t.Fatal(err)
	}
	loaded, err := table.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the identical sweep in memory (builds are deterministic
	// at any worker count).
	cfg := table.Config{
		Name:      "m6/coplanar",
		Thickness: units.Um(2),
		Rho:       units.RhoCopper,
		Shielding: geom.ShieldNone,
		Frequency: units.SignificantFrequency(50 * units.PicoSecond),
	}
	axes := table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(4), 2),
		Spacings: table.LogAxis(units.Um(1), units.Um(2), 2),
		Lengths:  table.LogAxis(units.Um(100), units.Um(1000), 3),
	}
	built, err := table.BuildCtx(context.Background(), cfg, axes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Self.Vals) != len(built.Self.Vals) || len(loaded.Mutual.Vals) != len(built.Mutual.Vals) {
		t.Fatalf("value counts drifted: self %d/%d, mutual %d/%d",
			len(loaded.Self.Vals), len(built.Self.Vals), len(loaded.Mutual.Vals), len(built.Mutual.Vals))
	}
	for k, v := range built.Self.Vals {
		if loaded.Self.Vals[k] != v {
			t.Fatalf("self[%d]: loaded %g != built %g", k, loaded.Self.Vals[k], v)
		}
	}
	for k, v := range built.Mutual.Vals {
		if loaded.Mutual.Vals[k] != v {
			t.Fatalf("mutual[%d]: loaded %g != built %g", k, loaded.Mutual.Vals[k], v)
		}
	}
	// Off-grid lookups interpolate through the same coefficients.
	a, err1 := built.SelfL(units.Um(1.7), units.Um(430))
	b, err2 := loaded.SelfL(units.Um(1.7), units.Um(430))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a != b {
		t.Errorf("off-grid lookup drifted through the round trip: %g vs %g", a, b)
	}
	m1, _ := built.MutualL(units.Um(1.3), units.Um(1.6), units.Um(1.4), units.Um(700))
	m2, _ := loaded.MutualL(units.Um(1.3), units.Um(1.6), units.Um(1.4), units.Um(700))
	if m1 != m2 {
		t.Errorf("off-grid mutual drifted through the round trip: %g vs %g", m1, m2)
	}
}

// Re-running tablegen against a warm cache must sweep nothing: the
// whole point of the artifact is that the solver runs once, ever.
func TestRunCacheHitSkipsSolves(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	args := func(out string) error {
		return run(context.Background(), out, "v3", "m6", 2, "cu", "coplanar", 2, 1,
			50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 1, cacheDir)
	}
	if err := args(filepath.Join(dir, "a.json")); err != nil {
		t.Fatal(err)
	}
	solves := obs.GetCounter("table.solver_calls")
	solves0 := solves.Value()
	if err := args(filepath.Join(dir, "b.json")); err != nil {
		t.Fatal(err)
	}
	if got := solves.Value() - solves0; got != 0 {
		t.Errorf("cached rerun performed %d solver calls, want 0", got)
	}
	a, err := table.LoadFile(filepath.Join(dir, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := table.LoadFile(filepath.Join(dir, "b.json"))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Self.Vals {
		if b.Self.Vals[k] != v {
			t.Fatalf("self[%d]: cold %g != cached %g", k, v, b.Self.Vals[k])
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "set.json")
	if err := run(context.Background(), out, "v3", "m6", 2, "unobtainium", "coplanar", 2, 1,
		50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 1, ""); err == nil {
		t.Error("accepted unknown metal")
	}
	if err := run(context.Background(), out, "v3", "m6", 2, "cu", "waveguide", 2, 1,
		50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 1, ""); err == nil {
		t.Error("accepted unknown shielding")
	}
	if err := run(context.Background(), out, "v7", "m6", 2, "cu", "coplanar", 2, 1,
		50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 1, ""); err == nil {
		t.Error("accepted unknown format")
	}
}

// Degenerate axis and numeric flags are refused up front with
// cliobs.ErrBadFlag (before any solve), and the binary exits 2 for them
// instead of panicking in table.LogAxis or failing later.
func TestRunRejectsDegenerateFlags(t *testing.T) {
	type axes struct {
		thickness, planeGap, planeT, tr    float64
		wmin, wmax, smin, smax, lmin, lmax float64
		nw, ns, nl, workers                int
	}
	cases := []struct {
		flag, value string
		set         func(*axes)
	}{
		{"-nw", "1", func(a *axes) { a.nw = 1 }},
		{"-ns", "0", func(a *axes) { a.ns = 0 }},
		{"-nl", "-3", func(a *axes) { a.nl = -3 }},
		{"-wmin", "0", func(a *axes) { a.wmin = 0 }},
		{"-smin", "-1", func(a *axes) { a.smin = -1 }},
		{"-wmax", "0.5", func(a *axes) { a.wmax = 0.5 }},
		{"-smax", "0.1", func(a *axes) { a.smax = 0.1 }},
		{"-lmax", "inf", func(a *axes) { a.lmax = math.Inf(1) }},
		{"-lmin", "nan", func(a *axes) { a.lmin = math.NaN() }},
		{"-tr", "0", func(a *axes) { a.tr = 0 }},
		{"-thickness", "0", func(a *axes) { a.thickness = 0 }},
		{"-planegap", "-1", func(a *axes) { a.planeGap = -1 }},
		{"-planethickness", "0", func(a *axes) { a.planeT = 0 }},
		{"-workers", "-1", func(a *axes) { a.workers = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "set.rlct")
			a := axes{thickness: 2, planeGap: 2, planeT: 1, tr: 50,
				wmin: 1, wmax: 14, smin: 0.5, smax: 22, lmin: 50, lmax: 8000, nw: 5, ns: 6, nl: 8, workers: 1}
			tc.set(&a)
			err := run(context.Background(), out, "v3", "m6", a.thickness, "cu", "coplanar", a.planeGap, a.planeT,
				a.tr, a.wmin, a.wmax, a.nw, a.smin, a.smax, a.ns, a.lmin, a.lmax, a.nl, a.workers, "")
			if !errors.Is(err, cliobs.ErrBadFlag) || !strings.Contains(err.Error(), tc.flag+" ") {
				t.Fatalf("run = %v, want ErrBadFlag naming %s", err, tc.flag)
			}
			cmd := exec.Command(binary(t), "-out", out, tc.flag+"="+tc.value)
			stderr, err := cmd.CombinedOutput()
			if code := cmd.ProcessState.ExitCode(); code != cliobs.ExitUsage {
				t.Fatalf("exit code %d (%v), want %d; output:\n%s", code, err, cliobs.ExitUsage, stderr)
			}
			if !strings.Contains(string(stderr), "bad flag: "+tc.flag+" ") || strings.Contains(string(stderr), "panic:") {
				t.Errorf("stderr does not name %s cleanly:\n%s", tc.flag, stderr)
			}
		})
	}
}

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// binary builds tablegen once per test run.
func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tablegen-test-*")
		if err != nil {
			buildErr = err
			return
		}
		buildPath = filepath.Join(dir, "tablegen")
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

// TestMigrateFileBitIdentical: `tablegen migrate` converts a v2 JSON
// artifact to the v3 binary codec (and back) without perturbing a
// single value bit.
func TestMigrateFileBitIdentical(t *testing.T) {
	dir := t.TempDir()
	v2 := filepath.Join(dir, "set.json")
	if err := run(context.Background(), v2, "v2", "m6", 2, "cu", "coplanar", 2, 1,
		50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 2, ""); err != nil {
		t.Fatal(err)
	}
	v3 := filepath.Join(dir, "set.rlct")
	if err := migrate(v2, v3, "v3"); err != nil {
		t.Fatal(err)
	}
	back := filepath.Join(dir, "back.json")
	if err := migrate(v3, back, "v2"); err != nil {
		t.Fatal(err)
	}
	orig, err := table.LoadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{v3, back} {
		got, err := table.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range orig.Self.Vals {
			if got.Self.Vals[k] != v {
				t.Fatalf("%s: self[%d] drifted: %g != %g", path, k, got.Self.Vals[k], v)
			}
		}
		for k, v := range orig.Mutual.Vals {
			if got.Mutual.Vals[k] != v {
				t.Fatalf("%s: mutual[%d] drifted: %g != %g", path, k, got.Mutual.Vals[k], v)
			}
		}
		a, err1 := orig.SelfL(units.Um(1.7), units.Um(430))
		b, err2 := got.SelfL(units.Um(1.7), units.Um(430))
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("%s: off-grid lookup drifted: %g vs %g (%v, %v)", path, a, b, err1, err2)
		}
		got.Close()
	}
	if err := migrate(v2, v3, "v9"); err == nil {
		t.Error("accepted unknown target format")
	}
}

// TestMigrateDir: directory mode converts a whole library in one call.
func TestMigrateDir(t *testing.T) {
	dir := t.TempDir()
	v2 := filepath.Join(dir, "set.json")
	if err := run(context.Background(), v2, "v2", "m6", 2, "cu", "coplanar", 2, 1,
		50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 2, ""); err != nil {
		t.Fatal(err)
	}
	srcDir := filepath.Join(dir, "lib")
	set, err := table.LoadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	lib := table.NewLibrary()
	if err := lib.Add(set); err != nil {
		t.Fatal(err)
	}
	if err := lib.SaveDir(srcDir); err != nil {
		t.Fatal(err)
	}
	dstDir := filepath.Join(dir, "lib3")
	if err := migrate(srcDir, dstDir, "v3"); err != nil {
		t.Fatal(err)
	}
	migrated, err := table.LoadDir(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := migrated.Get("m6/coplanar")
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range set.Self.Vals {
		if got.Self.Vals[k] != v {
			t.Fatalf("self[%d] drifted through dir migration: %g != %g", k, got.Self.Vals[k], v)
		}
	}
}
