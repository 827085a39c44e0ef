package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goldenRelTol is the relative tolerance each number of `figures -exp
// all` must meet against the committed figures_output.txt. Every
// other character must match exactly.
const goldenRelTol = 1e-9

var numberRE = regexp.MustCompile(`[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?`)

// TestAllExperimentsMatchGolden pins the reproduced paper results
// (E1–E14) to the committed figures_output.txt.
func TestAllExperimentsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "figures_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() error { return run(context.Background(), "all", "", 60) })
	compareGolden(t, string(got), string(want))
}

// captureStdout runs f with os.Stdout redirected to a file and
// returns what it printed.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	tmp, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// compareGolden checks got against want line by line: the text around
// the numbers must be identical and each number within goldenRelTol.
func compareGolden(t *testing.T, got, want string) {
	t.Helper()
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		t.Errorf("output has %d lines, golden %d", len(gl), len(wl))
	}
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if msg := lineMismatch(gl[i], wl[i]); msg != "" {
			t.Errorf("line %d: %s\n got: %s\nwant: %s", i+1, msg, gl[i], wl[i])
		}
	}
}

// lineMismatch returns why got differs from want beyond tolerance, or
// "" if it does not.
func lineMismatch(got, want string) string {
	if got == want {
		return ""
	}
	gt, wt := numberRE.Split(got, -1), numberRE.Split(want, -1)
	if len(gt) != len(wt) {
		return "different text"
	}
	for k := range wt {
		if gt[k] != wt[k] {
			return "different text"
		}
	}
	gn, wn := numberRE.FindAllString(got, -1), numberRE.FindAllString(want, -1)
	for k := range wn {
		g, err1 := strconv.ParseFloat(gn[k], 64)
		w, err2 := strconv.ParseFloat(wn[k], 64)
		if err1 != nil || err2 != nil {
			return "unparsable number " + gn[k] + " / " + wn[k]
		}
		if math.Abs(g-w) > goldenRelTol*math.Max(math.Abs(g), math.Abs(w)) {
			return "number " + gn[k] + " != " + wn[k]
		}
	}
	return ""
}

func TestLineMismatch(t *testing.T) {
	for _, tc := range []struct {
		got, want string
		ok        bool
	}{
		{"skew 68.869 ps", "skew 68.869 ps", true},
		{"x = 1.0000000000001e-3", "x = 1e-3", true},
		{"skew 68.870 ps", "skew 68.869 ps", false},
		{"skew 68.869 ns", "skew 68.869 ps", false},
		{"skew 68.869", "skew 68.869 ps", false},
		{"E4 -0", "E4 0", true},
	} {
		if ok := lineMismatch(tc.got, tc.want) == ""; ok != tc.ok {
			t.Errorf("lineMismatch(%q, %q) ok = %v, want %v", tc.got, tc.want, ok, tc.ok)
		}
	}
}
