package table

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clockrlc/internal/units"
)

func tinyAxes() Axes {
	return Axes{
		Widths:   LogAxis(units.Um(1), units.Um(4), 2),
		Spacings: LogAxis(units.Um(1), units.Um(2), 2),
		Lengths:  LogAxis(units.Um(100), units.Um(1000), 3),
	}
}

func TestLibraryRoundTrip(t *testing.T) {
	l := NewLibrary()
	for _, name := range []string{"M6/coplanar", "M6/microstrip"} {
		cfg := freeConfig()
		cfg.Name = name
		if name == "M6/microstrip" {
			cfg = microstripConfig()
			cfg.Name = name
		}
		s, err := BuildCtx(context.Background(), cfg, tinyAxes(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 2 {
		t.Fatalf("library size %d", l.Len())
	}
	dir := t.TempDir() + "/lib"
	if err := l.SaveDirV3(dir); err != nil {
		t.Fatal(err)
	}
	// Slash in the name must not create subdirectories.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("expected 2 files, got %d", len(entries))
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("loaded %d sets", back.Len())
	}
	a, err := l.Get("M6/coplanar")
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Get("M6/coplanar")
	if err != nil {
		t.Fatal(err)
	}
	x1, _ := a.SelfL(units.Um(2), units.Um(500))
	x2, _ := b.SelfL(units.Um(2), units.Um(500))
	if x1 != x2 {
		t.Errorf("lookup drift through library round trip: %g vs %g", x1, x2)
	}
}

// Distinct set names must land in distinct files — the old replacer
// collapsed "a/b", "a\\b" and "a__b" onto one file and the directory
// save silently kept only the last set written.
func TestLibraryAdversarialNamesRoundTrip(t *testing.T) {
	base, err := BuildCtx(context.Background(), freeConfig(), tinyAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"a/b", `a\b`, "a__b", "a b_", "a_b_", "a%2Fb", "M6/µstrip", "..",
	}
	l := NewLibrary()
	for _, name := range names {
		cfg := base.Config
		cfg.Name = name
		if err := l.Add(&Set{Config: cfg, Axes: base.Axes, Self: base.Self, Mutual: base.Mutual}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]string{}
	for _, name := range names {
		fn := fileName(name)
		if prev, dup := seen[fn]; dup {
			t.Fatalf("names %q and %q collide on file %q", prev, name, fn)
		}
		seen[fn] = name
		if filepath.Base(fn) != fn || strings.ContainsAny(fn, `/\ `) {
			t.Errorf("fileName(%q) = %q is not a safe flat name", name, fn)
		}
	}
	dir := filepath.Join(t.TempDir(), "lib")
	if err := l.SaveDirV3(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names) {
		t.Fatalf("%d files for %d sets — SaveDirV3 overwrote one", len(entries), len(names))
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		s, err := back.Get(name)
		if err != nil {
			t.Errorf("set %q lost in the round trip: %v", name, err)
			continue
		}
		a, _ := base.SelfL(units.Um(2), units.Um(500))
		b, _ := s.SelfL(units.Um(2), units.Um(500))
		if a != b {
			t.Errorf("set %q drifted through the round trip", name)
		}
	}
}

// Names differing only by letter case would merge on a
// case-insensitive filesystem; SaveDirV3 must refuse up front rather
// than overwrite one set silently.
func TestSaveDirRejectsCaseCollision(t *testing.T) {
	base, err := BuildCtx(context.Background(), freeConfig(), tinyAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLibrary()
	for _, name := range []string{"m6/cpw", "M6/cpw"} {
		cfg := base.Config
		cfg.Name = name
		if err := l.Add(&Set{Config: cfg, Axes: base.Axes, Self: base.Self, Mutual: base.Mutual}); err != nil {
			t.Fatal(err)
		}
	}
	err = l.SaveDirV3(filepath.Join(t.TempDir(), "lib"))
	if err == nil {
		t.Fatal("SaveDirV3 accepted case-colliding set names")
	}
	if !strings.Contains(err.Error(), "m6/cpw") || !strings.Contains(err.Error(), "M6/cpw") {
		t.Errorf("collision error must name both sets: %v", err)
	}
}

func TestLibraryValidation(t *testing.T) {
	l := NewLibrary()
	if err := l.Add(nil); err == nil {
		t.Error("accepted nil set")
	}
	if err := l.Add(&Set{}); err == nil {
		t.Error("accepted anonymous set")
	}
	cfg := freeConfig()
	s, err := BuildCtx(context.Background(), cfg, tinyAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Add(s); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(s); err == nil {
		t.Error("accepted duplicate set")
	}
	if _, err := l.Get("nosuch"); err == nil {
		t.Error("Get returned missing set")
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("LoadDir accepted an empty directory")
	}
	if _, err := LoadDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("LoadDir accepted a missing directory")
	}
}
