package statrc

import (
	"context"
	"math"
	"math/rand"
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
			Widths:   table.LogAxis(units.Um(1), units.Um(14), 5),
			Spacings: table.LogAxis(units.Um(0.5), units.Um(22), 6),
			Lengths:  table.LogAxis(units.Um(100), units.Um(6000), 6),
		}
		ext, eErr = core.NewExtractorCtx(context.Background(), tech, 3.2e9, axes, []geom.Shielding{geom.ShieldNone})
	})
	if eErr != nil {
		t.Fatal(eErr)
	}
	return ext
}

func seg() core.Segment {
	return core.Segment{
		Length:      units.Um(3000),
		SignalWidth: units.Um(10),
		GroundWidth: units.Um(5),
		Spacing:     units.Um(1.5),
		Shielding:   geom.ShieldNone,
	}
}

func typVariation() Variation {
	// 30 nm 1σ edge bias, 6 % CMP thickness, 5 % ILD height — typical
	// for the paper's technology generation.
	return Variation{EdgeBiasSigma: 0.03e-6, ThicknessSigma: 0.06, HeightSigma: 0.05}
}

func TestLInsensitiveToProcessVariation(t *testing.T) {
	e := extractor(t)
	r, c, l, err := MonteCarlo(context.Background(), e, seg(), typVariation(), 60, 42)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim: inductance is not sensitive to process
	// variation while R and C are. Require an order of magnitude.
	if !(l.Rel() < r.Rel()/5) {
		t.Errorf("σL/µL = %g not ≪ σR/µR = %g", l.Rel(), r.Rel())
	}
	if !(l.Rel() < c.Rel()/3) {
		t.Errorf("σL/µL = %g not ≪ σC/µC = %g", l.Rel(), c.Rel())
	}
	if l.Rel() > 0.01 {
		t.Errorf("σL/µL = %g, expected below 1%%", l.Rel())
	}
	if r.Rel() < 0.02 {
		t.Errorf("σR/µR = %g suspiciously small for 5–6%% geometry sigmas", r.Rel())
	}
}

func TestCornerDirections(t *testing.T) {
	e := extractor(t)
	nom, err := PerturbedRLC(context.Background(), e, seg(), Sample{Thickness: 1, Height: 1})
	if err != nil {
		t.Fatal(err)
	}
	worst, err := PerturbedRLC(context.Background(), e, seg(), typVariation().Corner(3))
	if err != nil {
		t.Fatal(err)
	}
	if !(worst.R > nom.R) {
		t.Errorf("3σ corner R %g not above nominal %g", worst.R, nom.R)
	}
	// L moves by well under the R move.
	dL := math.Abs(worst.L-nom.L) / nom.L
	dR := math.Abs(worst.R-nom.R) / nom.R
	if !(dL < dR/4) {
		t.Errorf("corner ΔL/L = %g not ≪ ΔR/R = %g", dL, dR)
	}
	// Capacitance direction isolated: thinner dielectric alone must
	// raise the total capacitance.
	thin, err := PerturbedRLC(context.Background(), e, seg(), Sample{Thickness: 1, Height: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	if !(thin.C > nom.C) {
		t.Errorf("thinner ILD C %g not above nominal %g", thin.C, nom.C)
	}
}

func TestDrawClampsTo3Sigma(t *testing.T) {
	v := typVariation()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		s := v.Draw(rng)
		if math.Abs(s.EdgeBias) > 3*v.EdgeBiasSigma+1e-18 {
			t.Fatalf("edge bias sample %g beyond 3σ", s.EdgeBias)
		}
		if s.Thickness <= 0 || s.Height <= 0 {
			t.Fatalf("degenerate sample %+v", s)
		}
	}
}

func TestValidation(t *testing.T) {
	if err := (Variation{EdgeBiasSigma: -1e-9}).Validate(); err == nil {
		t.Error("accepted negative sigma")
	}
	if err := (Variation{HeightSigma: 0.5}).Validate(); err == nil {
		t.Error("accepted huge sigma")
	}
	if err := (Variation{EdgeBiasSigma: 1e-6}).Validate(); err == nil {
		t.Error("accepted micron-scale edge bias")
	}
	e := extractor(t)
	if _, err := PerturbedRLC(context.Background(), e, seg(), Sample{}); err == nil {
		t.Error("accepted zero sample")
	}
	// Edge growth that consumes the whole gap must fail loudly.
	s := seg()
	s.Spacing = units.Um(0.1)
	if _, err := PerturbedRLC(context.Background(), e, s, Sample{EdgeBias: 0.06e-6, Thickness: 1, Height: 1}); err == nil {
		t.Error("accepted a sample that closes the wire gap")
	}
	if _, _, _, err := MonteCarlo(context.Background(), e, seg(), typVariation(), 1, 0); err == nil {
		t.Error("accepted n=1")
	}
}

func TestSpreadRel(t *testing.T) {
	s := Spread{Mean: 0, Sigma: 1}
	if !math.IsInf(s.Rel(), 1) {
		t.Error("Rel of zero mean must be +Inf")
	}
	s = Spread{Mean: 10, Sigma: 1}
	if s.Rel() != 0.1 {
		t.Errorf("Rel = %g", s.Rel())
	}
}
