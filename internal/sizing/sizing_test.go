package sizing

import (
	"context"
	"sync"
	"testing"

	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

var (
	once sync.Once
	ext  *core.Extractor
	eErr error
)

func extractor(t *testing.T) *core.Extractor {
	t.Helper()
	once.Do(func() {
		tech := core.Technology{
			Thickness:      units.Um(2),
			Rho:            units.RhoCopper,
			EpsRel:         units.EpsSiO2,
			CapHeight:      units.Um(2),
			PlaneGap:       units.Um(2),
			PlaneThickness: units.Um(1),
		}
		axes := table.Axes{
			Widths:   table.LogAxis(units.Um(0.6), units.Um(8), 5),
			Spacings: table.LogAxis(units.Um(0.4), units.Um(8), 5),
			Lengths:  table.LogAxis(units.Um(500), units.Um(6000), 5),
		}
		ext, eErr = core.NewExtractorCtx(context.Background(), tech, 6.4e9, axes, []geom.Shielding{geom.ShieldNone})
	})
	if eErr != nil {
		t.Fatal(eErr)
	}
	return ext
}

func testSpec() Spec {
	return Spec{
		Length:      units.Um(4000),
		Pitch:       units.Um(4),
		GroundWidth: units.Um(2),
		Shielding:   geom.ShieldNone,
		DriveRes:    30,
		LoadCap:     40e-15,
		RiseTime:    50e-12,
		Sections:    6,
		WithL:       true,
	}
}

func widthCandidates() []float64 {
	var ws []float64
	for _, u := range []float64{0.7, 1.0, 1.4, 2.0, 2.6} {
		ws = append(ws, units.Um(u))
	}
	return ws
}

func TestSweepWidthTrends(t *testing.T) {
	pts, err := SweepWidthCtx(context.Background(), extractor(t), testSpec(), widthCandidates())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].RLC.R >= pts[i-1].RLC.R {
			t.Errorf("R not decreasing with width: %g then %g", pts[i-1].RLC.R, pts[i].RLC.R)
		}
		if pts[i].RLC.C <= pts[i-1].RLC.C {
			t.Errorf("C not increasing with width at fixed pitch: %g then %g", pts[i-1].RLC.C, pts[i].RLC.C)
		}
		if pts[i].RLC.L >= pts[i-1].RLC.L {
			t.Errorf("loop L not decreasing with width: %g then %g", pts[i-1].RLC.L, pts[i].RLC.L)
		}
		if pts[i].Spacing >= pts[i-1].Spacing {
			t.Error("spacing must close as width grows")
		}
	}
}

func TestOptimizeFindsInteriorMinimum(t *testing.T) {
	best, pts, err := OptimizeCtx(context.Background(), extractor(t), testSpec(), widthCandidates())
	if err != nil {
		t.Fatal(err)
	}
	// For this driver/wire regime the delay curve is U-shaped: the
	// optimum is neither the narrowest (R-dominated) nor the widest
	// (C-dominated) candidate.
	if best.Width == pts[0].Width {
		t.Errorf("optimum at the narrowest width %g — R trade not visible (delays: %v)",
			best.Width, delays(pts))
	}
	if best.Width == pts[len(pts)-1].Width {
		t.Errorf("optimum at the widest width %g — C trade not visible (delays: %v)",
			best.Width, delays(pts))
	}
	for _, p := range pts {
		if p.Delay < best.Delay {
			t.Errorf("Optimize missed a better point: %g < %g", p.Delay, best.Delay)
		}
	}
}

func delays(pts []Point) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Delay / 1e-12
	}
	return out
}

func TestSizingValidation(t *testing.T) {
	e := extractor(t)
	bad := testSpec()
	bad.Pitch = 0
	if _, err := SweepWidthCtx(context.Background(), e, bad, widthCandidates()); err == nil {
		t.Error("accepted zero pitch")
	}
	if _, err := SweepWidthCtx(context.Background(), e, testSpec(), nil); err == nil {
		t.Error("accepted empty width list")
	}
	if _, err := SweepWidthCtx(context.Background(), e, testSpec(), []float64{-1}); err == nil {
		t.Error("accepted negative width")
	}
	// Width that eats the whole pitch.
	if _, err := SweepWidthCtx(context.Background(), e, testSpec(), []float64{units.Um(7)}); err == nil {
		t.Error("accepted width exceeding the pitch")
	}
}
