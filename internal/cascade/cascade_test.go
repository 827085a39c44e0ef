package cascade

import (
	"context"
	"math"
	"testing"

	"clockrlc/internal/units"
)

const fsig = 3.2e9

func straightTree(t *testing.T, n int, segLen float64) *Tree {
	t.Helper()
	var specs []SegmentSpec
	from := "n0"
	for i := 0; i < n; i++ {
		to := "n" + string(rune('1'+i))
		specs = append(specs, SegmentSpec{
			Name: from + to, From: from, To: to, Dir: YPlus, Length: segLen,
		})
		from = to
	}
	tr, err := NewTree("n0", specs, Fig6Cross(), units.RhoCopper)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSingleSegmentCascadeEqualsFull(t *testing.T) {
	tr := straightTree(t, 1, units.Um(400))
	casc, err := tr.CascadedLoopLCtx(context.Background(), fsig)
	if err != nil {
		t.Fatal(err)
	}
	full, err := tr.FullLoopLCtx(context.Background(), fsig)
	if err != nil {
		t.Fatal(err)
	}
	if casc <= 0 || full <= 0 {
		t.Fatalf("non-positive loop L: cascaded %g, full %g", casc, full)
	}
	if rel := math.Abs(casc-full) / full; !(rel <= 0.01) {
		t.Errorf("single segment: cascaded %g vs full %g (rel %g)", casc, full, rel)
	}
}

func TestCollinearChainCascades(t *testing.T) {
	tr := straightTree(t, 3, units.Um(300))
	casc, err := tr.CascadedLoopLCtx(context.Background(), fsig)
	if err != nil {
		t.Fatal(err)
	}
	full, err := tr.FullLoopLCtx(context.Background(), fsig)
	if err != nil {
		t.Fatal(err)
	}
	// Collinear segments couple (positively) beyond their own extent;
	// the shielded-cascade claim is that the effect is small.
	if rel := math.Abs(casc-full) / full; !(rel <= 0.06) {
		t.Errorf("3-segment chain: cascaded %g vs full %g (rel %g)", casc, full, rel)
	}
	// And the cascade is the plain series sum here.
	var sum float64
	for i := range tr.Specs {
		l, err := tr.SegmentLoopL(i, fsig)
		if err != nil {
			t.Fatal(err)
		}
		sum += l
	}
	if rel := math.Abs(casc-sum) / sum; rel > 1e-12 {
		t.Errorf("unbranched cascade %g != series sum %g", casc, sum)
	}
}

func TestFig6aTableIError(t *testing.T) {
	tr, err := Fig6a(units.RhoCopper)
	if err != nil {
		t.Fatal(err)
	}
	casc, err := tr.CascadedLoopLCtx(context.Background(), fsig)
	if err != nil {
		t.Fatal(err)
	}
	full, err := tr.FullLoopLCtx(context.Background(), fsig)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(casc-full) / full
	// The paper reports 3.57 % for this tree; shapes and spacings are
	// only approximately recoverable from the figure, so hold the
	// reproduction to the same order: a few per cent, not tens.
	if !(rel <= 0.08) {
		t.Errorf("Fig6a: cascaded %g vs full %g (error %.2f%%, paper 3.57%%)", casc, full, rel*100)
	}
	if casc <= 0 {
		t.Errorf("cascaded L = %g", casc)
	}
	// Sanity: total scale. 350–600 µm of 1.2 µm CPW is sub-nH.
	if nh := units.ToNH(full); nh <= 0.05 || nh >= 2 {
		t.Errorf("full loop L = %g nH out of expected range", nh)
	}
}

func TestFig6bTableIError(t *testing.T) {
	tr, err := Fig6b(units.RhoCopper)
	if err != nil {
		t.Fatal(err)
	}
	casc, err := tr.CascadedLoopLCtx(context.Background(), fsig)
	if err != nil {
		t.Fatal(err)
	}
	full, err := tr.FullLoopLCtx(context.Background(), fsig)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(casc-full) / full
	if !(rel <= 0.08) {
		t.Errorf("Fig6b: cascaded %g vs full %g (error %.2f%%, paper 1.55%%)", casc, full, rel*100)
	}
}

func TestCascadedCombinationRule(t *testing.T) {
	tr, err := Fig6a(units.RhoCopper)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-evaluate Lab + (Lbc + Lce) ∥ (Lbd + Ldf).
	l := make([]float64, len(tr.Specs))
	for i := range tr.Specs {
		if l[i], err = tr.SegmentLoopL(i, fsig); err != nil {
			t.Fatal(err)
		}
	}
	b1 := l[1] + l[2]
	b2 := l[3] + l[4]
	want := l[0] + b1*b2/(b1+b2)
	got, err := tr.CascadedLoopLCtx(context.Background(), fsig)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-want) / want; rel > 1e-12 {
		t.Errorf("cascade rule: got %g, hand combination %g", got, want)
	}
}

func TestTreeLayout(t *testing.T) {
	tr, err := Fig6a(units.RhoCopper)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := tr.Pos("b")
	if err != nil {
		t.Fatal(err)
	}
	if pb[0] != 0 || math.Abs(pb[1]-units.Um(100)) > 1e-18 {
		t.Errorf("Pos(b) = %v", pb)
	}
	pe, err := tr.Pos("e")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pe[0]-(-units.Um(150))) > 1e-18 || math.Abs(pe[1]-units.Um(350)) > 1e-18 {
		t.Errorf("Pos(e) = %v", pe)
	}
	sinks := tr.Sinks()
	if len(sinks) != 2 || sinks[0] != "e" || sinks[1] != "f" {
		t.Errorf("Sinks = %v", sinks)
	}
	if _, err := tr.Pos("zz"); err == nil {
		t.Error("Pos accepted unknown node")
	}
}

func TestNewTreeValidation(t *testing.T) {
	cross := Fig6Cross()
	if _, err := NewTree("a", nil, cross, units.RhoCopper); err == nil {
		t.Error("accepted empty tree")
	}
	if _, err := NewTree("a", []SegmentSpec{
		{Name: "xy", From: "x", To: "y", Dir: XPlus, Length: 1e-6},
	}, cross, units.RhoCopper); err == nil {
		t.Error("accepted unplaced From node")
	}
	if _, err := NewTree("a", []SegmentSpec{
		{Name: "ab", From: "a", To: "b", Dir: XPlus, Length: 1e-6},
		{Name: "ab2", From: "a", To: "b", Dir: YPlus, Length: 1e-6},
	}, cross, units.RhoCopper); err == nil {
		t.Error("accepted a cycle")
	}
	if _, err := NewTree("a", []SegmentSpec{
		{Name: "ab", From: "a", To: "b", Dir: XPlus, Length: 0},
	}, cross, units.RhoCopper); err == nil {
		t.Error("accepted zero-length segment")
	}
	if _, err := NewTree("a", []SegmentSpec{
		{Name: "ab", From: "a", To: "b", Dir: XPlus, Length: 1e-6},
	}, CrossSection{}, units.RhoCopper); err == nil {
		t.Error("accepted empty cross section")
	}
	if _, err := NewTree("a", []SegmentSpec{
		{Name: "ab", From: "a", To: "b", Dir: XPlus, Length: 1e-6},
	}, cross, 0); err == nil {
		t.Error("accepted zero resistivity")
	}
}

func TestFullLoopLErrors(t *testing.T) {
	tr := straightTree(t, 1, units.Um(100))
	if _, err := tr.FullLoopLCtx(context.Background(), 0); err == nil {
		t.Error("accepted zero frequency")
	}
	if _, err := tr.SegmentLoopL(9, fsig); err == nil {
		t.Error("accepted out-of-range segment index")
	}
}
