package clockrlc_test

import (
	"context"
	"math"
	"testing"

	"clockrlc"
)

// The facade test exercises the public API end to end on a small
// problem: tables → extraction → netlist → simulation → measurement.
func TestPublicAPIEndToEnd(t *testing.T) {
	tech := clockrlc.Technology{
		Thickness:      clockrlc.Um(2),
		Rho:            clockrlc.RhoCopper,
		EpsRel:         clockrlc.EpsSiO2,
		CapHeight:      clockrlc.Um(2),
		PlaneGap:       clockrlc.Um(2),
		PlaneThickness: clockrlc.Um(1),
	}
	freq := clockrlc.SignificantFrequency(50 * clockrlc.PicoSecond)
	if math.Abs(freq-6.4e9) > 1 {
		t.Fatalf("SignificantFrequency = %g", freq)
	}
	axes := clockrlc.TableAxes{
		Widths:   clockrlc.LogAxis(clockrlc.Um(1), clockrlc.Um(12), 3),
		Spacings: clockrlc.LogAxis(clockrlc.Um(0.5), clockrlc.Um(10), 3),
		Lengths:  clockrlc.LogAxis(clockrlc.Um(100), clockrlc.Um(4000), 4),
	}
	ext, err := clockrlc.NewExtractor(tech, freq, axes, []clockrlc.Shielding{clockrlc.ShieldNone})
	if err != nil {
		t.Fatal(err)
	}
	seg := clockrlc.Segment{
		Length:      clockrlc.Um(2000),
		SignalWidth: clockrlc.Um(6),
		GroundWidth: clockrlc.Um(3),
		Spacing:     clockrlc.Um(1),
		Shielding:   clockrlc.ShieldNone,
	}
	rlc, err := ext.SegmentRLCCtx(context.Background(), seg)
	if err != nil {
		t.Fatal(err)
	}
	if rlc.R <= 0 || rlc.L <= 0 || rlc.C <= 0 {
		t.Fatalf("extraction out of range: %+v", rlc)
	}

	nl := clockrlc.NewNetlist()
	nl.AddV("v", "drv", "0", clockrlc.Ramp{V0: 0, V1: 1, Start: 2e-12, Rise: 50e-12})
	nl.AddR("rd", "drv", "in", 40)
	if _, err := nl.AddLadder("s", "in", "out", rlc, 6); err != nil {
		t.Fatal(err)
	}
	nl.AddC("cl", "out", "0", 30*clockrlc.FemtoFarad)
	res, err := clockrlc.Transient(nl, 0.5e-12, 500e-12, []string{"in", "out"})
	if err != nil {
		t.Fatal(err)
	}
	vout, err := res.Waveform("out")
	if err != nil {
		t.Fatal(err)
	}
	d, err := clockrlc.DelayFromT0(res.Time, vout, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 300e-12 {
		t.Errorf("sink arrival %g out of range", d)
	}
}

func TestPublicGeometryHelpers(t *testing.T) {
	blk := clockrlc.CoplanarWaveguide(clockrlc.Um(1000), clockrlc.Um(4), clockrlc.Um(4),
		clockrlc.Um(1), clockrlc.Um(1), 0, clockrlc.RhoCopper)
	if err := blk.Validate(); err != nil {
		t.Fatal(err)
	}
	sol, err := clockrlc.SolveLoop(blk, 1, clockrlc.LoopOptions{Frequency: 3.2e9})
	if err != nil {
		t.Fatal(err)
	}
	if sol.L <= 0 {
		t.Errorf("loop L = %g", sol.L)
	}
	ms := clockrlc.Microstrip(clockrlc.Um(1000), clockrlc.Um(4), clockrlc.Um(4),
		clockrlc.Um(1), clockrlc.Um(1), 0, clockrlc.RhoCopper, clockrlc.Um(2), clockrlc.Um(1))
	sol2, err := clockrlc.SolveLoop(ms, 1, clockrlc.LoopOptions{Frequency: 3.2e9})
	if err != nil {
		t.Fatal(err)
	}
	if sol2.L >= sol.L {
		t.Errorf("plane did not reduce loop L: %g vs %g", sol2.L, sol.L)
	}
	m, err := clockrlc.LoopMatrix(blk, clockrlc.LoopOptions{Frequency: 3.2e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || m[0][0] != sol.L {
		t.Errorf("LoopMatrix mismatch: %v vs %g", m, sol.L)
	}
}

func TestPublicPartialInductance(t *testing.T) {
	bar := clockrlc.Bar{O: [3]float64{0, 0, 0}, L: clockrlc.Um(1000), W: clockrlc.Um(2), T: clockrlc.Um(1)}
	self := clockrlc.SelfInductance(bar)
	if self <= 0 {
		t.Fatalf("self = %g", self)
	}
	other := bar
	other.O[1] = clockrlc.Um(10)
	mut := clockrlc.MutualInductance(bar, other)
	if mut <= 0 || mut >= self {
		t.Errorf("mutual = %g, self = %g", mut, self)
	}
}

func TestPublicCascade(t *testing.T) {
	tree, err := clockrlc.Fig6a(clockrlc.RhoCopper)
	if err != nil {
		t.Fatal(err)
	}
	full, err := tree.FullLoopLCtx(context.Background(), 6.4e9)
	if err != nil {
		t.Fatal(err)
	}
	casc, err := tree.CascadedLoopLCtx(context.Background(), 6.4e9)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(full-casc) / full; rel > 0.08 {
		t.Errorf("cascading error %g", rel)
	}
}

func TestPublicEstimatorsAndScreen(t *testing.T) {
	line := clockrlc.DelayLine{Rd: 20, R: 6, L: 2e-9, C: 1e-12, Cl: 50e-15}
	two, err := clockrlc.TwoPoleDelay(line)
	if err != nil {
		t.Fatal(err)
	}
	rc := line
	rc.L = 0
	elm, err := clockrlc.ElmoreDelay(rc)
	if err != nil {
		t.Fatal(err)
	}
	if two <= 0 || elm <= 0 {
		t.Fatalf("estimates out of range: %g, %g", two, elm)
	}
	z, err := clockrlc.DampingRatio(line)
	if err != nil {
		t.Fatal(err)
	}
	v, err := clockrlc.ScreenInductance(line, 30e-12)
	if err != nil {
		t.Fatal(err)
	}
	if z < 1 && !v.Matters {
		t.Errorf("underdamped fast net screened out: ζ=%g, %+v", z, v)
	}
}

func TestPublicACAnalysis(t *testing.T) {
	nl := clockrlc.NewNetlist()
	nl.AddV("vin", "in", "0", clockrlc.Ramp{})
	nl.AddR("r", "in", "out", 1e3)
	nl.AddC("c", "out", "0", 1e-12)
	res, err := clockrlc.ACAnalysis(nl, []float64{1e6, 1e9}, map[string]float64{"vin": 1}, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	mag, err := res.Mag("out")
	if err != nil {
		t.Fatal(err)
	}
	if !(mag[0] > mag[1]) {
		t.Errorf("lowpass violated: %v", mag)
	}
}

func TestPublicSizing(t *testing.T) {
	tech := clockrlc.Technology{
		Thickness: clockrlc.Um(2), Rho: clockrlc.RhoCopper,
		EpsRel: clockrlc.EpsSiO2, CapHeight: clockrlc.Um(2),
		PlaneGap: clockrlc.Um(2), PlaneThickness: clockrlc.Um(1),
	}
	axes := clockrlc.TableAxes{
		Widths:   clockrlc.LogAxis(clockrlc.Um(0.6), clockrlc.Um(6), 4),
		Spacings: clockrlc.LogAxis(clockrlc.Um(0.4), clockrlc.Um(6), 4),
		Lengths:  clockrlc.LogAxis(clockrlc.Um(500), clockrlc.Um(4000), 4),
	}
	ext, err := clockrlc.NewExtractor(tech, 6.4e9, axes, []clockrlc.Shielding{clockrlc.ShieldNone})
	if err != nil {
		t.Fatal(err)
	}
	spec := clockrlc.SizingSpec{
		Length: clockrlc.Um(3000), Pitch: clockrlc.Um(4),
		GroundWidth: clockrlc.Um(2), Shielding: clockrlc.ShieldNone,
		DriveRes: 30, LoadCap: 40e-15, RiseTime: 50e-12, WithL: true,
	}
	best, pts, err := clockrlc.OptimizeWidth(ext, spec,
		[]float64{clockrlc.Um(0.8), clockrlc.Um(1.5), clockrlc.Um(2.4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || best.Delay <= 0 {
		t.Fatalf("optimize returned %d points, best delay %g", len(pts), best.Delay)
	}
}
