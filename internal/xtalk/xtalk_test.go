package xtalk

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
			Widths:   table.LogAxis(units.Um(1), units.Um(14), 3),
			Spacings: table.LogAxis(units.Um(0.5), units.Um(10), 3),
			Lengths:  table.LogAxis(units.Um(100), units.Um(4000), 4),
		}
		ext, eErr = core.NewExtractorCtx(context.Background(), tech, 6.4e9, axes, []geom.Shielding{geom.ShieldNone})
	})
	if eErr != nil {
		t.Fatal(eErr)
	}
	return ext
}

func baseScenario() Scenario {
	return Scenario{
		Victim: core.Segment{
			Length:      units.Um(2000),
			SignalWidth: units.Um(4),
			GroundWidth: units.Um(4),
			Spacing:     units.Um(1),
			Shielding:   geom.ShieldNone,
		},
		AggressorWidth:   units.Um(4),
		AggressorSpacing: units.Um(1),
		Sections:         6,
	}
}

func TestNoiseIsBoundedAndNonzero(t *testing.T) {
	res, err := Run(context.Background(), extractor(t), baseScenario())
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakNoise <= 0 {
		t.Fatal("no coupled noise at all — couplings are not wired")
	}
	// A well-shielded victim sees a small fraction of the 1 V swing.
	if res.PeakNoise > 0.15 {
		t.Errorf("peak noise %.3f V too large for a shielded victim", res.PeakNoise)
	}
	if len(res.Time) != len(res.VictimSink) || len(res.Time) == 0 {
		t.Error("waveform not recorded")
	}
}

func TestWiderShieldsReduceNoise(t *testing.T) {
	// The Section IV "at least equal width" experiment: noise decays
	// monotonically as the shields widen.
	pts, err := ShieldWidthSweep(context.Background(), extractor(t), baseScenario(), []float64{0.25, 0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].PeakNoise >= pts[i-1].PeakNoise {
			t.Errorf("noise not decreasing with shield width: ratio %g → %.4f V, ratio %g → %.4f V",
				pts[i-1].WidthRatio, pts[i-1].PeakNoise, pts[i].WidthRatio, pts[i].PeakNoise)
		}
	}
	// Equal-width shields already suppress noise well below the
	// quarter-width case.
	if pts[2].PeakNoise > pts[0].PeakNoise/1.5 {
		t.Errorf("equal-width shields only reduce noise from %.4f to %.4f V",
			pts[0].PeakNoise, pts[2].PeakNoise)
	}
}

func TestShieldsSuppressCoupling(t *testing.T) {
	// Section IV's claim: the two guarded ground wires shield the
	// inductive coupling between the system and its environment. The
	// unshielded victim (same aggressor clearance to the victim as the
	// shielded case has to its shield) must see several times the
	// noise.
	e := extractor(t)
	shielded, err := Run(context.Background(), e, baseScenario())
	if err != nil {
		t.Fatal(err)
	}
	un := baseScenario()
	un.Unshielded = true
	unshielded, err := Run(context.Background(), e, un)
	if err != nil {
		t.Fatal(err)
	}
	if !(unshielded.PeakNoise > 3*shielded.PeakNoise) {
		t.Errorf("shielding gain too small: unshielded %.4f V vs shielded %.4f V",
			unshielded.PeakNoise, shielded.PeakNoise)
	}
}

func TestScenarioValidation(t *testing.T) {
	e := extractor(t)
	sc := baseScenario()
	sc.AggressorWidth = 0
	if _, err := Run(context.Background(), e, sc); err == nil {
		t.Error("accepted zero aggressor width")
	}
	sc = baseScenario()
	sc.Victim.Length = 0
	if _, err := Run(context.Background(), e, sc); err == nil {
		t.Error("accepted invalid victim")
	}
	if _, err := ShieldWidthSweep(context.Background(), e, baseScenario(), []float64{-1}); err == nil {
		t.Error("accepted negative width ratio")
	}
}
