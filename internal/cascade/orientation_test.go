package cascade

import (
	"context"
	"math"
	"testing"

	"clockrlc/internal/units"
)

// A U-shaped route has two long antiparallel runs. In the full-tree
// extraction their mutual coupling must enter with a negative sign
// (opposite current directions), so the full loop inductance falls
// below the cascaded series sum. This pins the orientation handling
// of FullLoopL.
func TestUTurnOrientationSign(t *testing.T) {
	// Route: up 400, right over a short jog, down 400 — the two long
	// runs sit close and carry opposite currents. Deliberately thin
	// shields let the runs see each other (with the normal equal-width
	// shields the effect is suppressed to ~0.02 % — itself a
	// confirmation of Section IV; see the test below).
	specs := []SegmentSpec{
		{Name: "up", From: "a", To: "b", Dir: YPlus, Length: units.Um(400)},
		{Name: "jog", From: "b", To: "c", Dir: XPlus, Length: units.Um(4.5)},
		{Name: "down", From: "c", To: "d", Dir: YMinus, Length: units.Um(400)},
	}
	cross := Fig6Cross()
	cross.GroundWidth = units.Um(0.3)
	tr, err := NewTree("a", specs, cross, units.RhoCopper)
	if err != nil {
		t.Fatal(err)
	}
	full, err := tr.FullLoopLCtx(context.Background(), fsig)
	if err != nil {
		t.Fatal(err)
	}
	casc, err := tr.CascadedLoopLCtx(context.Background(), fsig)
	if err != nil {
		t.Fatal(err)
	}
	if full <= 0 {
		t.Fatalf("full loop L = %g", full)
	}
	if !(full < casc) {
		t.Errorf("antiparallel runs must reduce the full loop L: full %g vs cascaded %g", full, casc)
	}
	if rel := (casc - full) / casc; rel < 0.002 {
		t.Errorf("U-turn reduction only %g; orientation sign may be lost", rel)
	}

	// With proper equal-width shields the same route cascades almost
	// perfectly — Section IV's claim seen from the orientation side.
	trShielded, err := NewTree("a", specs, Fig6Cross(), units.RhoCopper)
	if err != nil {
		t.Fatal(err)
	}
	fullS, err := trShielded.FullLoopLCtx(context.Background(), fsig)
	if err != nil {
		t.Fatal(err)
	}
	cascS, err := trShielded.CascadedLoopLCtx(context.Background(), fsig)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(cascS-fullS) / cascS; rel > 0.01 {
		t.Errorf("shielded U-turn cascading error %g, want < 1%%", rel)
	}
}

// The mirrored route (down first) must give the identical loop
// inductance: the solve cannot depend on global direction conventions.
func TestDirectionMirrorSymmetry(t *testing.T) {
	mk := func(d1, d3 Dir) float64 {
		specs := []SegmentSpec{
			{Name: "s1", From: "a", To: "b", Dir: d1, Length: units.Um(300)},
			{Name: "s2", From: "b", To: "c", Dir: XPlus, Length: units.Um(50)},
			{Name: "s3", From: "c", To: "d", Dir: d3, Length: units.Um(300)},
		}
		tr, err := NewTree("a", specs, Fig6Cross(), units.RhoCopper)
		if err != nil {
			t.Fatal(err)
		}
		full, err := tr.FullLoopLCtx(context.Background(), fsig)
		if err != nil {
			t.Fatal(err)
		}
		return full
	}
	upDown := mk(YPlus, YMinus)
	downUp := mk(YMinus, YPlus)
	if rel := math.Abs(upDown-downUp) / upDown; rel > 1e-9 {
		t.Errorf("mirror asymmetry: %g vs %g (rel %g)", upDown, downUp, rel)
	}
}

// Separating the two runs far apart must recover the cascaded value.
func TestUTurnDecouplesWithDistance(t *testing.T) {
	mk := func(jog float64) (full, casc float64) {
		specs := []SegmentSpec{
			{Name: "up", From: "a", To: "b", Dir: YPlus, Length: units.Um(400)},
			{Name: "jog", From: "b", To: "c", Dir: XPlus, Length: jog},
			{Name: "down", From: "c", To: "d", Dir: YMinus, Length: units.Um(400)},
		}
		tr, err := NewTree("a", specs, Fig6Cross(), units.RhoCopper)
		if err != nil {
			t.Fatal(err)
		}
		if full, err = tr.FullLoopLCtx(context.Background(), fsig); err != nil {
			t.Fatal(err)
		}
		if casc, err = tr.CascadedLoopLCtx(context.Background(), fsig); err != nil {
			t.Fatal(err)
		}
		return full, casc
	}
	fullNear, cascNear := mk(units.Um(20))
	fullFar, cascFar := mk(units.Um(400))
	relNear := (cascNear - fullNear) / cascNear
	relFar := math.Abs(cascFar-fullFar) / cascFar
	if !(relFar < relNear) {
		t.Errorf("coupling did not decay with separation: near %g, far %g", relNear, relFar)
	}
	if relFar > 0.02 {
		t.Errorf("far-separated U-turn still differs by %g", relFar)
	}
}
