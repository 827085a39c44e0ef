package table

// Property tests for the paper's Foundations 1 and 2 — the separation
// assumptions the whole table method rests on. Foundation 1: a trace's
// self inductance depends only on its own geometry (width, thickness,
// length), not on anything else in the configuration. Foundation 2:
// the mutual inductance of a pair depends only on that pair. These
// pin the properties at both the solver-entry level and the lookup
// level, so an accidental cross-coupling introduced by a future
// refactor (a config field leaking into the self solve, a mutual
// entry consulting a third trace) fails loudly.

import (
	"context"
	"math"
	"testing"

	"clockrlc/internal/units"
)

// Foundation 1 at the build level: fields with no physical bearing on
// a free-configuration self solve (Name, Workers, PlaneStrips — the
// plane discretisation is unused with no plane) must not change a
// single bit of the self table.
func TestFoundation1SelfTableIgnoresUnrelatedConfig(t *testing.T) {
	axes := Axes{
		Widths:   LogAxis(units.Um(1), units.Um(8), 3),
		Spacings: LogAxis(units.Um(1), units.Um(4), 2),
		Lengths:  LogAxis(units.Um(200), units.Um(2000), 3),
	}
	base, err := BuildCtx(context.Background(), freeConfig(), axes, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := freeConfig()
	cfg.Name = "some/other-name"
	cfg.Workers = 3
	cfg.PlaneStrips = 5
	alt, err := BuildCtx(context.Background(), cfg, axes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Self.Vals {
		if base.Self.Vals[i] != alt.Self.Vals[i] {
			t.Fatalf("self[%d] = %g changed to %g under unrelated config fields",
				i, base.Self.Vals[i], alt.Self.Vals[i])
		}
	}
}

// Foundation 1 at the axes level: the self table is a function of
// (widths × lengths) only — swapping the spacing axis (which only the
// mutual table consults) leaves it bit-identical.
func TestFoundation1SelfTableIgnoresSpacingAxis(t *testing.T) {
	widths := LogAxis(units.Um(1), units.Um(8), 3)
	lengths := LogAxis(units.Um(200), units.Um(2000), 3)
	a, err := BuildCtx(context.Background(), freeConfig(), Axes{Widths: widths,
		Spacings: LogAxis(units.Um(1), units.Um(4), 2), Lengths: lengths}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCtx(context.Background(), freeConfig(), Axes{Widths: widths,
		Spacings: LogAxis(units.Um(0.6), units.Um(20), 4), Lengths: lengths}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Self.Vals {
		if a.Self.Vals[i] != b.Self.Vals[i] {
			t.Fatalf("self[%d] depends on the spacing axis: %g vs %g", i, a.Self.Vals[i], b.Self.Vals[i])
		}
	}
}

// Foundation 2 at the solver level: mutual inductance is a symmetric
// function of the pair — swapping (w1, w2) must give the same entry.
func TestFoundation2MutualEntryPairSymmetry(t *testing.T) {
	cfg := freeConfig().withDefaults()
	pairs := []struct{ w1, w2, sp, l float64 }{
		{units.Um(1), units.Um(4), units.Um(1), units.Um(500)},
		{units.Um(2), units.Um(8), units.Um(3), units.Um(2000)},
		{units.Um(0.8), units.Um(12), units.Um(0.7), units.Um(4000)},
	}
	for _, p := range pairs {
		a, err := mutualEntry(cfg, p.w1, p.w2, p.sp, p.l)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mutualEntry(cfg, p.w2, p.w1, p.sp, p.l)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(a-b) / math.Abs(a); !(rel <= 1e-12) {
			t.Errorf("mutual(w1=%g, w2=%g) = %g but mutual(w2, w1) = %g (rel %g)",
				p.w1, p.w2, a, b, rel)
		}
	}
}

// Foundation 2 at the lookup level: the table's mutual lookup at a
// knot point reproduces the pair's direct solver entry — no
// contribution leaks in from other entries of the grid — and the
// lookup itself is pair-symmetric on and off the knots.
func TestFoundation2MutualLookupDependsOnlyOnPair(t *testing.T) {
	cfg := freeConfig()
	axes := Axes{
		Widths:   LogAxis(units.Um(1), units.Um(8), 3),
		Spacings: LogAxis(units.Um(1), units.Um(4), 2),
		Lengths:  LogAxis(units.Um(200), units.Um(2000), 3),
	}
	set, err := BuildCtx(context.Background(), cfg, axes, nil)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := cfg.withDefaults()
	for _, i := range []int{0, 2} {
		for _, j := range []int{0, 1} {
			w1, w2 := axes.Widths[i], axes.Widths[j]
			sp, l := axes.Spacings[1], axes.Lengths[2]
			got, err := set.MutualL(w1, w2, sp, l)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mutualEntry(dcfg, w1, w2, sp, l)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(got-want) / math.Abs(want); !(rel <= 1e-9) {
				t.Errorf("lookup at knot (w1=%g, w2=%g): %g vs solver %g (rel %g)", w1, w2, got, want, rel)
			}
		}
	}
	// Off-knot symmetry.
	w1, w2 := units.Um(1.7), units.Um(5.2)
	sp, l := units.Um(2.1), units.Um(900)
	a, err := set.MutualL(w1, w2, sp, l)
	if err != nil {
		t.Fatal(err)
	}
	b, err := set.MutualL(w2, w1, sp, l)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(a-b) / math.Abs(a); !(rel <= 1e-12) {
		t.Errorf("off-knot lookup not pair-symmetric: %g vs %g (rel %g)", a, b, rel)
	}
}
