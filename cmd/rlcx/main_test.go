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

	"clockrlc/internal/check"
	"clockrlc/internal/cliobs"
	"clockrlc/internal/geom"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

func TestRunWithPrebuiltTables(t *testing.T) {
	cfg := table.Config{
		Name:      "t/coplanar",
		Thickness: units.Um(2),
		Rho:       units.RhoCopper,
		Shielding: geom.ShieldNone,
		Frequency: units.SignificantFrequency(50e-12),
	}
	axes := table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(12), 3),
		Spacings: table.LogAxis(units.Um(0.5), units.Um(4), 3),
		Lengths:  table.LogAxis(units.Um(500), units.Um(4000), 3),
	}
	set, err := table.BuildCtx(context.Background(), cfg, axes, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := set.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), 2000, 8, 4, 1, "coplanar", 2, 2, 50, path, "", true, 4, "extrapolate"); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadShield(t *testing.T) {
	if err := run(context.Background(), 2000, 8, 4, 1, "bogus", 2, 2, 50, "", "", false, 4, "extrapolate"); err == nil {
		t.Error("accepted unknown shielding")
	}
}

// Acceptance: a pre-built table with one k >= 1 mutual entry is
// rejected under -check=strict with an error naming the table, cell
// and invariant, before any extraction runs; under -check=warn the
// same run completes and the violation counter advances.
func TestRunCorruptTableStrictVsWarn(t *testing.T) {
	defer check.SetPolicy(check.Off)
	check.SetPolicy(check.Off)
	cfg := table.Config{
		Name:      "t/coplanar",
		Thickness: units.Um(2),
		Rho:       units.RhoCopper,
		Shielding: geom.ShieldNone,
		Frequency: units.SignificantFrequency(50e-12),
	}
	axes := table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(12), 3),
		Spacings: table.LogAxis(units.Um(0.5), units.Um(4), 3),
		Lengths:  table.LogAxis(units.Um(500), units.Um(4000), 3),
	}
	set, err := table.BuildCtx(context.Background(), cfg, axes, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one diagonal mutual entry far above the coupling bound; the
	// re-save computes a fresh (valid) checksum, so only the physical
	// audit can catch it.
	nw, ns, nl := len(axes.Widths), len(axes.Spacings), len(axes.Lengths)
	set.Mutual.Vals[((1*nw+1)*ns+0)*nl+1] = 100 * set.Self.Vals[1*nl+1]
	path := filepath.Join(t.TempDir(), "set.json")
	if err := set.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	check.SetPolicy(check.Strict)
	err = run(context.Background(), 2000, 8, 4, 1, "coplanar", 2, 2, 50, path, "", false, 4, "extrapolate")
	if err == nil {
		t.Fatal("strict run accepted a table with k >= 1")
	}
	if !errors.Is(err, check.ErrViolation) {
		t.Errorf("%v does not unwrap to check.ErrViolation", err)
	}
	for _, frag := range []string{path, "mutual coupling k < 1", "mutual[1,1,0,1]"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("strict error %q missing %q", err.Error(), frag)
		}
	}

	check.SetPolicy(check.Warn)
	before := check.Violations()
	if err := run(context.Background(), 2000, 8, 4, 1, "coplanar", 2, 2, 50, path, "", false, 4, "extrapolate"); err != nil {
		t.Fatalf("warn run failed: %v", err)
	}
	if check.Violations() <= before {
		t.Error("warn run did not advance check.violations")
	}
}

// Degenerate numeric flags are refused up front with cliobs.ErrBadFlag
// (before any table build), and the binary exits 2 for them instead of
// failing later with exit 1.
func TestRunRejectsDegenerateFlags(t *testing.T) {
	type args struct {
		length, wsig, wgnd, space, thickness, caph, tr float64
		sections                                       int
	}
	cases := []struct {
		flag string
		argv []string
		set  func(*args)
	}{
		{"-tr", []string{"-tr", "0"}, func(a *args) { a.tr = 0 }},
		{"-len", []string{"-len", "-100"}, func(a *args) { a.length = -100 }},
		{"-wsig", []string{"-wsig", "0"}, func(a *args) { a.wsig = 0 }},
		{"-wgnd", []string{"-wgnd", "nan"}, func(a *args) { a.wgnd = math.NaN() }},
		{"-space", []string{"-space", "0"}, func(a *args) { a.space = 0 }},
		{"-thickness", []string{"-thickness", "-2"}, func(a *args) { a.thickness = -2 }},
		{"-caph", []string{"-caph", "inf"}, func(a *args) { a.caph = math.Inf(1) }},
		{"-sections", []string{"-sections", "0", "-netlist"}, func(a *args) { a.sections = 0 }},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.argv, "="), func(t *testing.T) {
			a := args{length: 6000, wsig: 10, wgnd: 5, space: 1, thickness: 2, caph: 2, tr: 50, sections: 8}
			tc.set(&a)
			err := run(context.Background(), a.length, a.wsig, a.wgnd, a.space, "coplanar", a.thickness, a.caph,
				a.tr, "", "", true, a.sections, "extrapolate")
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

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// binary builds rlcx once per test run.
func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "rlcx-test-*")
		if err != nil {
			buildErr = err
			return
		}
		buildPath = filepath.Join(dir, "rlcx")
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
