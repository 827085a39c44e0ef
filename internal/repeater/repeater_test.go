package repeater

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
			Widths:   table.LogAxis(units.Um(0.8), units.Um(6), 4),
			Spacings: table.LogAxis(units.Um(0.5), units.Um(4), 4),
			Lengths:  table.LogAxis(units.Um(400), units.Um(16000), 7),
		}
		ext, eErr = core.NewExtractorCtx(context.Background(), tech, 6.4e9, axes, []geom.Shielding{geom.ShieldNone})
	})
	if eErr != nil {
		t.Fatal(eErr)
	}
	return ext
}

func testSpec(withL bool) Spec {
	return Spec{
		Line: core.Segment{
			Length:      units.Um(16000),
			SignalWidth: units.Um(2),
			GroundWidth: units.Um(2),
			Spacing:     units.Um(1),
			Shielding:   geom.ShieldNone,
		},
		Buffer: Buffer{
			DriveRes:       60,
			InputCap:       40e-15,
			IntrinsicDelay: 25e-12,
			OutSlew:        50e-12,
		},
		WithL:    withL,
		Sections: 6,
	}
}

func TestDelayCurveIsUShaped(t *testing.T) {
	e := extractor(t)
	best, pts, err := Optimize(context.Background(), e, testSpec(false), 8)
	if err != nil {
		t.Fatal(err)
	}
	if best.N == 1 || best.N == 8 {
		t.Errorf("RC optimum at the boundary (n=%d); curve: %v", best.N, totals(pts))
	}
	// Endpoint sanity: unrepeated long line is slower than optimal.
	if !(pts[0].Total > best.Total) {
		t.Errorf("n=1 (%g) not above optimum (%g)", pts[0].Total, best.Total)
	}
	if !(pts[len(pts)-1].Total > best.Total) {
		t.Errorf("n=8 (%g) not above optimum (%g)", pts[len(pts)-1].Total, best.Total)
	}
}

// The headline: inductance-aware analysis inserts no more repeaters
// than RC-only analysis, because wire delay with L already grows more
// linearly with length.
func TestInductanceReducesOptimalRepeaterCount(t *testing.T) {
	e := extractor(t)
	bestRC, _, err := Optimize(context.Background(), e, testSpec(false), 8)
	if err != nil {
		t.Fatal(err)
	}
	bestRLC, ptsRLC, err := Optimize(context.Background(), e, testSpec(true), 8)
	if err != nil {
		t.Fatal(err)
	}
	if bestRLC.N > bestRC.N {
		t.Errorf("RLC optimum n=%d exceeds RC optimum n=%d (RLC curve: %v)",
			bestRLC.N, bestRC.N, totals(ptsRLC))
	}
	if bestRLC.Total <= 0 || bestRC.Total <= 0 {
		t.Fatal("degenerate optima")
	}
}

// Per-stage wire delay decreases monotonically as stages shorten.
func TestStageDelayMonotone(t *testing.T) {
	e := extractor(t)
	prev := -1.0
	for _, n := range []int{1, 2, 4, 8} {
		p, err := DelayWithN(context.Background(), e, testSpec(true), n)
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && p.StageDelay >= prev {
			t.Errorf("stage delay not decreasing: n=%d gives %g after %g", n, p.StageDelay, prev)
		}
		prev = p.StageDelay
	}
}

func TestRepeaterValidation(t *testing.T) {
	e := extractor(t)
	if _, err := DelayWithN(context.Background(), e, testSpec(true), 0); err == nil {
		t.Error("accepted n = 0")
	}
	bad := testSpec(true)
	bad.Buffer.DriveRes = 0
	if _, err := DelayWithN(context.Background(), e, bad, 2); err == nil {
		t.Error("accepted zero drive resistance")
	}
	bad = testSpec(true)
	bad.Line.Length = 0
	if _, err := DelayWithN(context.Background(), e, bad, 2); err == nil {
		t.Error("accepted zero line length")
	}
	if _, _, err := Optimize(context.Background(), e, testSpec(true), 0); err == nil {
		t.Error("accepted maxN = 0")
	}
}

func totals(pts []Point) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Total / 1e-12
	}
	return out
}
