package table

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
)

// WithLookup must hand concurrent requests their own policies without
// ever writing the shared set (run under -race) and without giving
// the copy ownership of the file mapping.
func TestWithLookupSharesGridsWithoutMutation(t *testing.T) {
	dir := t.TempDir()
	set, err := BuildCtx(context.Background(), freeConfig(), tinyAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "set.rlct")
	if err := set.SaveFileV3(path); err != nil {
		t.Fatal(err)
	}
	shared, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()

	// An off-axis width: extrapolate answers, error refuses.
	w := shared.Axes.Widths[len(shared.Axes.Widths)-1] * 4
	l := shared.Axes.Lengths[0]
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if i%2 == 0 {
					s := shared.WithLookup(LookupError)
					if _, err := s.SelfL(w, l); !errors.Is(err, ErrOutOfRange) {
						t.Errorf("LookupError copy: err = %v, want ErrOutOfRange", err)
						return
					}
				} else {
					s := shared.WithLookup(LookupExtrapolate)
					if _, err := s.SelfL(w, l); err != nil {
						t.Errorf("LookupExtrapolate copy: %v", err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if shared.Lookup != LookupExtrapolate {
		t.Errorf("shared set's policy was mutated to %v", shared.Lookup)
	}

	// Same-policy requests reuse the set itself; different-policy
	// copies never own the mapping.
	if s := shared.WithLookup(shared.Lookup); s != shared {
		t.Error("same-policy WithLookup did not return the receiver")
	}
	cp := shared.WithLookup(LookupClamp)
	if cp == shared {
		t.Error("different-policy WithLookup returned the receiver")
	}
	if cp.Mapped() {
		t.Error("policy copy claims to own the file mapping")
	}
	if shared.Mapped() != true {
		t.Skip("set not mapped on this platform; ownership check not applicable")
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if !shared.Mapped() {
		t.Error("closing the policy copy released the original's mapping")
	}
}

// A loaded library owns one mapping per v3 set; Close must release
// them all and be idempotent.
func TestLibraryCloseReleasesMappings(t *testing.T) {
	dir := t.TempDir()
	l := NewLibrary()
	for _, name := range []string{"M6/coplanar", "M6/b"} {
		cfg := freeConfig()
		cfg.Name = name
		s, err := BuildCtx(context.Background(), cfg, tinyAxes(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SaveDirV3(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mapped := 0
	for _, name := range loaded.Names() {
		s, err := loaded.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Mapped() {
			mapped++
		}
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range loaded.Names() {
		s, _ := loaded.Get(name)
		if s.Mapped() {
			t.Errorf("set %s still mapped after Library.Close", name)
		}
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if mapped == 0 {
		t.Log("no set was mmap-backed on this platform; Close exercised the no-op path")
	}
}
