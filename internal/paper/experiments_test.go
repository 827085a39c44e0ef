package paper

import (
	"context"
	"math"
	"sync"
	"testing"

	"clockrlc/internal/core"
	"clockrlc/internal/geom"
)

var (
	once sync.Once
	ext  *core.Extractor
	eErr error
)

func extractor(t *testing.T) *core.Extractor {
	t.Helper()
	once.Do(func() { ext, eErr = NewExtractor(context.Background()) })
	if eErr != nil {
		t.Fatal(eErr)
	}
	return ext
}

// E1: including inductance slows the Fig. 1 net and introduces the
// overshoot/undershoot of Fig. 3.
func TestFig23HeadlineShape(t *testing.T) {
	res, err := Fig23(context.Background(), extractor(t))
	if err != nil {
		t.Fatal(err)
	}
	// All variants: sane positive delays and monotone RC waveforms.
	for name, v := range map[string]Fig23Variant{
		"extracted":         res.Extracted,
		"calibrated":        res.Calibrated,
		"calibratedPartial": res.CalibratedPartial,
	} {
		if v.DelayRC <= 0 || v.DelayRLC <= 0 {
			t.Errorf("%s: non-positive delays rc=%g rlc=%g", name, v.DelayRC, v.DelayRLC)
		}
		if v.OvershootRC > 1e-6 {
			t.Errorf("%s: RC waveform overshoots by %g; must be monotone", name, v.OvershootRC)
		}
	}
	// With our full-extraction capacitance (2.7 pF, low line Z0) the
	// inductive wave arrival lands within a few per cent of the RC
	// diffusion — direction can go either way, magnitude must be small.
	if r := res.Extracted.DelayRLC / res.Extracted.DelayRC; r < 0.85 || r > 1.3 {
		t.Errorf("extracted variant ratio = %g, want near 1", r)
	}
	// The calibrated loop-ladder variant shows the paper's direction.
	cal := res.Calibrated
	if ps := cal.DelayRC / 1e-12; ps < 22 || ps > 42 {
		t.Errorf("calibrated RC delay = %g ps, paper 28.01 ps", ps)
	}
	if ratio := cal.DelayRLC / cal.DelayRC; ratio < 1.15 || ratio > 2.2 {
		t.Errorf("calibrated delay ratio = %g, paper 1.70", ratio)
	}
	// The authors'-netlist analog reproduces the full Fig. 3 shape:
	// a ~1.7× delay inflation with visible overshoot and undershoot.
	part := res.CalibratedPartial
	if ratio := part.DelayRLC / part.DelayRC; ratio < 1.4 || ratio > 2.3 {
		t.Errorf("partial-netlist delay ratio = %g, paper 1.70", ratio)
	}
	if !(part.OvershootRLC > 0.03) {
		t.Errorf("partial-netlist overshoot = %g, expected visible ringing", part.OvershootRLC)
	}
	if !(part.UndershootRLC > 0.005) {
		t.Errorf("partial-netlist undershoot = %g, expected visible ringing", part.UndershootRLC)
	}
	// The extracted totals of the Fig. 1 net.
	if nh := res.RLC.L / 1e-9; nh < 1 || nh > 5 {
		t.Errorf("Fig.1 loop L = %g nH", nh)
	}
}

// E2: the foundations hold to solver precision.
func TestFig5Foundations(t *testing.T) {
	res, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if res.Foundation1Err > 1e-9 {
		t.Errorf("Foundation 1 deviation %g", res.Foundation1Err)
	}
	if res.Foundation2Err > 1e-9 {
		t.Errorf("Foundation 2 deviation %g", res.Foundation2Err)
	}
	// Matrix structure: positive diagonal, decaying mutuals.
	m := res.Full
	for i := 0; i < m.Rows; i++ {
		if m.At(i, i) <= 0 {
			t.Errorf("loop self L[%d] = %g", i, m.At(i, i))
		}
	}
	if !(m.At(0, 1) > m.At(0, 4)) {
		t.Errorf("mutual must decay with distance: M01=%g M04=%g", m.At(0, 1), m.At(0, 4))
	}
}

// E3: Table I errors stay at the paper's few-per-cent level.
func TestTable1CascadingErrors(t *testing.T) {
	rows, err := Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if !(r.ErrPercent <= 8) {
			t.Errorf("%s: cascading error %.2f%% (paper %.2f%%)", r.Name, r.ErrPercent, r.PaperErrPct)
		}
		if r.FullL <= 0 || r.CascadedL <= 0 {
			t.Errorf("%s: non-positive inductances %g/%g", r.Name, r.FullL, r.CascadedL)
		}
	}
}

// E4: ignoring inductance misestimates skew by the paper's >10 %.
func TestHTreeSkewDifference(t *testing.T) {
	if testing.Short() {
		t.Skip("tree simulation in -short mode")
	}
	res, err := HTreeSkew(context.Background(), extractor(t), geom.ShieldNone)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.SkewErrPercent > 5) {
		t.Errorf("skew misestimate %.1f%%, paper reports >10%%", res.SkewErrPercent)
	}
	if !(res.ArrivalRLC > res.ArrivalRC) {
		t.Errorf("RLC arrival %g not above RC %g", res.ArrivalRLC, res.ArrivalRC)
	}
}

// E5: the super-linear growth band (the paper's ≈2.1–2.4× per length
// doubling around 1000→2000 µm).
func TestLengthSweepSuperlinearity(t *testing.T) {
	rows := LengthSweep()
	for _, r := range rows {
		if !(r.SelfRatio > 2.0 && r.SelfRatio < 2.5) {
			t.Errorf("length %g: self ratio %g outside (2, 2.5)", r.Length, r.SelfRatio)
		}
		if !(r.MutRatio > 2.0 && r.MutRatio < 2.7) {
			t.Errorf("length %g: mutual ratio %g outside (2, 2.7)", r.Length, r.MutRatio)
		}
	}
}

// E6: table accuracy.
func TestCheckTables(t *testing.T) {
	acc, err := CheckTables(context.Background(), extractor(t))
	if err != nil {
		t.Fatal(err)
	}
	if !(acc.MaxSelfErr <= 0.02) {
		t.Errorf("max self lookup error %g", acc.MaxSelfErr)
	}
	if !(acc.MaxMutualErr <= 0.02) {
		t.Errorf("max mutual lookup error %g", acc.MaxMutualErr)
	}
	// Composition vs the full proximity-resolved solve: the method's
	// envelope at the significant frequency (see core.DirectLoopL).
	if !(acc.MaxLoopErr <= 0.15) {
		t.Errorf("max composed-loop error %g", acc.MaxLoopErr)
	}
	if acc.Probes < 8 {
		t.Errorf("only %d probes ran", acc.Probes)
	}
}

// E7: skin effect trends at the significant frequency.
func TestFreqSweepTrends(t *testing.T) {
	rows, err := FreqSweep()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].R < rows[i-1].R*(1-1e-9) {
			t.Errorf("R not monotone at %g Hz", rows[i].Freq)
		}
		if rows[i].L > rows[i-1].L*(1+1e-9) {
			t.Errorf("L not monotone at %g Hz", rows[i].Freq)
		}
	}
}

// E8: the microstrip block has lower inductance than the CPW block.
func TestCompareShields(t *testing.T) {
	res, err := CompareShields(context.Background(), extractor(t))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.LoopMS < res.LoopCPW) {
		t.Errorf("microstrip loop L %g not below CPW %g", res.LoopMS, res.LoopCPW)
	}
	if res.DelayCPW <= 0 || res.DelayMS <= 0 {
		t.Errorf("non-positive delays %g, %g", res.DelayCPW, res.DelayMS)
	}
}

// E9: inductance is process-insensitive relative to R and C.
func TestProcessVariationExperiment(t *testing.T) {
	res, err := ProcessVariation(context.Background(), extractor(t), 40)
	if err != nil {
		t.Fatal(err)
	}
	// At the 6.4 GHz significant frequency the skin effect clamps R's
	// thickness sensitivity, so the contrast is milder than at DC;
	// the absolute statement is the paper's: L moves by well under a
	// per cent while C (and DC R) move by several.
	if !(res.LSpread.Rel() < 0.012) {
		t.Errorf("σL/µL = %g, want < 1.2%%", res.LSpread.Rel())
	}
	if !(res.LSpread.Rel() < res.CSpread.Rel()/2) {
		t.Errorf("σL/µL = %g not ≪ σC/µC = %g", res.LSpread.Rel(), res.CSpread.Rel())
	}
	if !(res.LSpread.Rel() < res.RSpread.Rel()) {
		t.Errorf("σL/µL = %g not below σR/µR = %g", res.LSpread.Rel(), res.RSpread.Rel())
	}
}

func TestSignificantFrequencyConstant(t *testing.T) {
	if math.Abs(Fsig-0.32/RiseTime) > 1 {
		t.Errorf("Fsig = %g, want 0.32/tr = %g", Fsig, 0.32/RiseTime)
	}
}
