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
	out := filepath.Join(t.TempDir(), "set.rlct")
	err := run(context.Background(), out, "m6", 2, "cu", "coplanar", 2, 1,
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
	out := filepath.Join(t.TempDir(), "set.rlct")
	if err := run(context.Background(), out, "m6", 2, "cu", "coplanar", 2, 1,
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
		return run(context.Background(), out, "m6", 2, "cu", "coplanar", 2, 1,
			50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 1, cacheDir)
	}
	if err := args(filepath.Join(dir, "a.rlct")); err != nil {
		t.Fatal(err)
	}
	solves := obs.GetCounter("table.solver_calls")
	solves0 := solves.Value()
	if err := args(filepath.Join(dir, "b.rlct")); err != nil {
		t.Fatal(err)
	}
	if got := solves.Value() - solves0; got != 0 {
		t.Errorf("cached rerun performed %d solver calls, want 0", got)
	}
	a, err := table.LoadFile(filepath.Join(dir, "a.rlct"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := table.LoadFile(filepath.Join(dir, "b.rlct"))
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
	out := filepath.Join(t.TempDir(), "set.rlct")
	if err := run(context.Background(), out, "m6", 2, "unobtainium", "coplanar", 2, 1,
		50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 1, ""); err == nil {
		t.Error("accepted unknown metal")
	}
	if err := run(context.Background(), out, "m6", 2, "cu", "waveguide", 2, 1,
		50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 1, ""); err == nil {
		t.Error("accepted unknown shielding")
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
			err := run(context.Background(), out, "m6", a.thickness, "cu", "coplanar", a.planeGap, a.planeT,
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

// legacyFixtures are the table package's committed v1 and v2 JSON
// records, written by the JSON codec before it was retired.
var legacyFixtures = []string{
	filepath.Join("..", "..", "internal", "table", "testdata", "v1.json"),
	filepath.Join("..", "..", "internal", "table", "testdata", "v2.json"),
}

// sameValues fails unless got holds want's values bit for bit and
// interpolates identically off grid.
func sameValues(t *testing.T, label string, want, got *table.Set) {
	t.Helper()
	for name, pair := range map[string][2][]float64{
		"self":   {want.Self.Vals, got.Self.Vals},
		"mutual": {want.Mutual.Vals, got.Mutual.Vals},
	} {
		w, g := pair[0], pair[1]
		if len(w) != len(g) {
			t.Fatalf("%s: %s count %d != %d", label, name, len(g), len(w))
		}
		for k := range w {
			if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
				t.Fatalf("%s: %s[%d] drifted: %g != %g", label, name, k, g[k], w[k])
			}
		}
	}
	w, l := want.Axes.Widths[0]*1.3, want.Axes.Lengths[0]*1.7
	a, err1 := want.SelfL(w, l)
	b, err2 := got.SelfL(w, l)
	if err1 != nil || err2 != nil || math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: off-grid lookup drifted: %g vs %g (%v, %v)", label, a, b, err1, err2)
	}
}

// TestMigrateFileBitIdentical: `tablegen migrate` converts a legacy
// v1 or v2 JSON artifact to the v3 binary codec without perturbing a
// single value bit, and re-migrating the v3 file reproduces its bytes.
func TestMigrateFileBitIdentical(t *testing.T) {
	dir := t.TempDir()
	for i, src := range legacyFixtures {
		orig, err := table.LoadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		v3 := filepath.Join(dir, fmt.Sprintf("set%d.rlct", i))
		if err := migrate(src, v3); err != nil {
			t.Fatal(err)
		}
		got, err := table.LoadFile(v3)
		if err != nil {
			t.Fatal(err)
		}
		sameValues(t, src, orig, got)
		got.Close()

		again := filepath.Join(dir, fmt.Sprintf("again%d.rlct", i))
		if err := migrate(v3, again); err != nil {
			t.Fatal(err)
		}
		a, errA := os.ReadFile(v3)
		b, errB := os.ReadFile(again)
		if errA != nil || errB != nil || string(a) != string(b) {
			t.Errorf("%s: re-migrating the v3 file changed its bytes (%v, %v)", src, errA, errB)
		}
	}
}

// TestMigrateDir: directory mode converts a whole library, legacy
// JSON and v3 sets side by side, in one call.
func TestMigrateDir(t *testing.T) {
	dir := t.TempDir()
	srcDir := filepath.Join(dir, "lib")
	if err := os.Mkdir(srcDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), filepath.Join(srcDir, "m6.rlct"), "m6", 2, "cu", "coplanar", 2, 1,
		50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 2, ""); err != nil {
		t.Fatal(err)
	}
	legacy, err := os.ReadFile(legacyFixtures[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(srcDir, "synthetic.json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := table.LoadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	dstDir := filepath.Join(dir, "lib3")
	if err := migrate(srcDir, dstDir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".rlct" {
			t.Errorf("migrated library holds %s, want only .rlct files", e.Name())
		}
	}
	migrated, err := table.LoadDir(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if migrated.Len() != 2 {
		t.Fatalf("migrated %d sets, want 2 (%v)", migrated.Len(), migrated.Names())
	}
	for _, name := range src.Names() {
		want, err := src.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := migrated.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sameValues(t, name, want, got)
	}
}
