package table

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clockrlc/internal/units"
)

// codecTestSet builds one tiny set for persistence tests.
func codecTestSet(t *testing.T) *Set {
	t.Helper()
	set, err := BuildCtx(context.Background(), freeConfig(), tinyAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// saveToFile writes the set and returns the path and raw bytes.
func saveToFile(t *testing.T, set *Set) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "set.rlct")
	if err := set.SaveFileV3(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// legacyFixture returns the raw bytes of a committed JSON record
// (testdata/v1.json, testdata/v2.json: syntheticSet as the last JSON
// writer saved it, before the writer was retired).
func legacyFixture(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// A crash mid-save must never leave a truncated record under the
// final name: SaveFileV3 goes through a temp file + rename, so a
// pre-existing good file survives a failed overwrite and no lookup
// ever sees half a sweep.
func TestSaveFileIsAtomic(t *testing.T) {
	set := codecTestSet(t)
	path, raw := saveToFile(t, set)

	// No temp droppings next to the artifact.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}

	// Overwriting in place keeps the record loadable and identical.
	if err := set.SaveFileV3(path); err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("re-save of the same set produced different bytes")
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back.Close()
}

// The torn-write regression: a JSON file truncated mid-record (what
// the old non-atomic JSON save left after a crash) must fail loudly
// with an error naming the file — not poison the library or panic a
// spline.
func TestLoadRejectsTornWrite(t *testing.T) {
	raw := legacyFixture(t, "v2.json")
	dir := t.TempDir()
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFile(torn)
	if err == nil {
		t.Fatal("LoadFile accepted a torn record")
	}
	if !strings.Contains(err.Error(), "torn.json") {
		t.Errorf("torn-write error does not name the file: %v", err)
	}
	// A torn file in a library directory fails LoadDir with the same
	// identification instead of a silent partial library.
	if err := os.WriteFile(filepath.Join(dir, "good2.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Error("LoadDir accepted a directory with a torn record")
	}
}

func TestLoadRejectsBadChecksum(t *testing.T) {
	raw := legacyFixture(t, "v2.json")
	var ff fileFormat
	if err := json.Unmarshal(raw, &ff); err != nil {
		t.Fatal(err)
	}
	if ff.Version != maxJSONVersion || ff.Checksum == "" {
		t.Fatalf("v2 fixture: version %d, checksum %q", ff.Version, ff.Checksum)
	}
	// Corrupt one stored value; the record stays valid JSON with the
	// right counts, so only the checksum can catch it.
	ff.SelfVals[0] *= 1.0000001
	mut, err := json.Marshal(ff)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bitrot.json")
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadFile(bad)
	if err == nil {
		t.Fatal("LoadFile accepted a bit-rotted record")
	}
	if !strings.Contains(err.Error(), "checksum") || !strings.Contains(err.Error(), "bitrot.json") {
		t.Errorf("checksum error must name the failure and the file: %v", err)
	}
}

// TestLegacyFixturesLoadBitIdentical pins the read side of the retired
// JSON codec: the committed v1 and v2 records load, through Load and
// LoadFile, to exactly the set they were saved from — every value and
// every spline coefficient bit for bit, which is what the set's v3
// image holds.
func TestLegacyFixturesLoadBitIdentical(t *testing.T) {
	want, err := syntheticSet(t).encodeV3()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"v1.json", "v2.json"} {
		fromReader, err := Load(bytes.NewReader(legacyFixture(t, name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fromFile, err := LoadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range []*Set{fromReader, fromFile} {
			got, err := s.encodeV3()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s loaded to a set that differs from the one it was saved from", name)
			}
		}
	}
}

func TestLoadRejectsValueCountMismatch(t *testing.T) {
	set := codecTestSet(t)
	for _, tc := range []struct {
		name string
		mod  func(ff *fileFormat)
		want string
	}{
		{"self short", func(ff *fileFormat) { ff.SelfVals = ff.SelfVals[:len(ff.SelfVals)-1] }, "self value count"},
		{"mutual short", func(ff *fileFormat) { ff.MutualVals = ff.MutualVals[:len(ff.MutualVals)-2] }, "mutual value count"},
		{"self empty", func(ff *fileFormat) { ff.SelfVals = nil }, "self value count"},
	} {
		// Version 1 records carry no checksum, so the count check is
		// the only line of defence on the migration path.
		ff := fileFormat{
			Version:    1,
			Config:     set.Config,
			Axes:       set.Axes,
			SelfVals:   append([]float64(nil), set.Self.Vals...),
			MutualVals: append([]float64(nil), set.Mutual.Vals...),
		}
		tc.mod(&ff)
		raw, err := json.Marshal(ff)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "count.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = LoadFile(path)
		if err == nil {
			t.Errorf("%s: LoadFile accepted a count mismatch", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "count.json") {
			t.Errorf("%s: error must explain the mismatch and name the file: %v", tc.name, err)
		}
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.json")
	if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFile(path)
	if err == nil {
		t.Fatal("LoadFile accepted a future format version")
	}
	if !strings.Contains(err.Error(), "99") || !strings.Contains(err.Error(), "future.json") {
		t.Errorf("future-version error must name the version and the file: %v", err)
	}
	if _, err := Load(bytes.NewBufferString(`{"version": 0}`)); err == nil {
		t.Error("Load accepted version 0")
	}
}

// Version-1 records (written before the checksum codec) must keep
// loading bit-identically — the migration path for existing
// libraries.
func TestLoadMigratesV1(t *testing.T) {
	set := codecTestSet(t)
	ff := fileFormat{
		Version:    1,
		Config:     set.Config,
		Axes:       set.Axes,
		SelfVals:   set.Self.Vals,
		MutualVals: set.Mutual.Vals,
	}
	raw, err := json.Marshal(ff)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("v1 record rejected: %v", err)
	}
	w, l := units.Um(2), units.Um(500)
	a, err1 := set.SelfL(w, l)
	b, err2 := back.SelfL(w, l)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a != b {
		t.Errorf("v1 migration drifted a lookup: %g vs %g", a, b)
	}
}

// Stale temp files from a crashed save must not break LoadDir: they
// do not end in .rlct or .json and are skipped.
func TestLoadDirSkipsTempFiles(t *testing.T) {
	set := codecTestSet(t)
	dir := t.TempDir()
	if err := set.SaveFileV3(filepath.Join(dir, fileName(set.Config.Name))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "set.rlct.tmp-123"), []byte("half a reco"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir tripped on a stale temp file: %v", err)
	}
	if l.Len() != 1 {
		t.Errorf("loaded %d sets, want 1", l.Len())
	}
}
