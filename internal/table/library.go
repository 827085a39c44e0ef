package table

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Library manages the table sets of a technology: one set per (layer,
// shielding configuration), addressable by the set's Config.Name. It
// is the on-disk artifact cmd/tablegen produces one file of; a design
// flow builds the library once and every extraction after that is
// lookups.
type Library struct {
	sets map[string]*Set
}

// NewLibrary returns an empty library.
func NewLibrary() *Library {
	return &Library{sets: map[string]*Set{}}
}

// Add registers a set under its Config.Name, rejecting duplicates and
// anonymous sets.
func (l *Library) Add(s *Set) error {
	if s == nil {
		return fmt.Errorf("table: nil set")
	}
	if s.Config.Name == "" {
		return fmt.Errorf("table: set has no name")
	}
	if _, dup := l.sets[s.Config.Name]; dup {
		return fmt.Errorf("table: duplicate set %q", s.Config.Name)
	}
	l.sets[s.Config.Name] = s
	return nil
}

// Get returns a set by name.
func (l *Library) Get(name string) (*Set, error) {
	s, ok := l.sets[name]
	if !ok {
		return nil, fmt.Errorf("table: library has no set %q (have %v)", name, l.Names())
	}
	return s, nil
}

// Names lists the registered sets, sorted.
func (l *Library) Names() []string {
	out := make([]string, 0, len(l.sets))
	for n := range l.sets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the set count.
func (l *Library) Len() int { return len(l.sets) }

// Close releases every set's file mapping (a no-op for heap-backed
// sets). Every set is closed even if some fail; the first error is
// returned, naming its set. After Close no set's values may be
// touched. A long-lived process that opens libraries repeatedly must
// Close them, or each v3 open leaks a mapping for process lifetime.
func (l *Library) Close() error {
	var first error
	for _, name := range l.Names() {
		if err := l.sets[name].Close(); err != nil && first == nil {
			first = fmt.Errorf("table: close %s: %w", name, err)
		}
	}
	return first
}

// fileName maps a set name ("M6/microstrip") to a filesystem-safe v3
// file name. The mapping is injective: bytes outside [A-Za-z0-9._-]
// — '%' included — are %XX-escaped, so distinct names ("a/b" vs
// "a\\b" vs "a_b") can never collapse onto the same file and SaveDirV3
// can never silently overwrite one set with another.
func fileName(name string) string {
	const ext = ".rlct"
	var b strings.Builder
	b.Grow(len(name) + len(ext))
	for i := 0; i < len(name); i++ {
		switch ch := name[i]; {
		case ch >= 'a' && ch <= 'z', ch >= 'A' && ch <= 'Z',
			ch >= '0' && ch <= '9', ch == '.', ch == '-', ch == '_':
			b.WriteByte(ch)
		default:
			fmt.Fprintf(&b, "%%%02X", ch)
		}
	}
	b.WriteString(ext)
	return b.String()
}

// SaveDirV3 writes every set to dir (created if needed) in the v3
// binary format, one .rlct file per set, each atomically (see
// SaveFileV3). File names are checked for collisions
// case-insensitively first: the escape above is injective, but a
// case-insensitive filesystem (macOS, Windows) would still merge names
// differing only by letter case, so that is rejected up front instead
// of overwriting silently.
func (l *Library) SaveDirV3(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("table: %w", err)
	}
	used := map[string]string{} // folded file name → set name
	for _, name := range l.Names() {
		fn := fileName(name)
		folded := strings.ToLower(fn)
		if prev, dup := used[folded]; dup {
			return fmt.Errorf("table: set names %q and %q both map to file %q on a case-insensitive filesystem; rename one set", prev, name, fn)
		}
		used[folded] = name
		if err := l.sets[name].SaveFileV3(filepath.Join(dir, fn)); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir reads every *.json (legacy codec) and *.rlct (v3 binary)
// table set in dir into a new library. LoadFile already frames its
// errors with "table: <path>: …", so they pass through unwrapped here
// — re-framing them would stutter the prefix.
func LoadDir(dir string) (*Library, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	l := NewLibrary()
	for _, e := range entries {
		if e.IsDir() || (!strings.HasSuffix(e.Name(), ".json") && !strings.HasSuffix(e.Name(), ".rlct")) {
			continue
		}
		s, err := LoadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if err := l.Add(s); err != nil {
			return nil, err
		}
	}
	if l.Len() == 0 {
		return nil, fmt.Errorf("table: no table sets found in %s", dir)
	}
	return l, nil
}
