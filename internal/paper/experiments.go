package paper

import (
	"context"
	"fmt"
	"math"

	"clockrlc/internal/cascade"
	"clockrlc/internal/clocktree"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/linalg"
	"clockrlc/internal/loop"
	"clockrlc/internal/netlist"
	"clockrlc/internal/peec"
	"clockrlc/internal/sim"
	"clockrlc/internal/statrc"
	"clockrlc/internal/units"
)

// Fig23Variant is one RC-vs-RLC comparison of the Fig. 1 net.
type Fig23Variant struct {
	// Time axis and the four waveforms (driver output "in", sink
	// "out") for the RC-only and RLC netlists.
	Time                        []float64
	InRC, OutRC, InRLC, OutRLC  []float64
	DelayRC, DelayRLC           float64 // buffer switch → sink 50 %
	OvershootRLC, UndershootRLC float64
	OvershootRC                 float64
}

// Fig23Result is experiment E1: the Fig. 2 (RC only) and Fig. 3 (RLC)
// transients of the Fig. 1 configuration, run three ways.
type Fig23Result struct {
	// RLC holds the full-extraction totals of the 6 mm net.
	RLC netlist.SegmentRLC
	// Extracted uses the full extraction (loop-L ladder);
	// Calibrated replaces C with CalibratedLineCap. The paper's
	// 28.01 ps / 47.6 ps figures correspond to the calibrated variants.
	Extracted, Calibrated Fig23Variant
	// CalibratedPartial is the closest analog of the authors' SPICE
	// netlist: the sectioned PEEC formulation with ground wires bonded
	// only at the segment ends (no intermediate ground straps), at the
	// calibrated line capacitance. Its higher dynamic inductance
	// reproduces the Fig. 3 overshoot/undershoot.
	CalibratedPartial Fig23Variant
}

// fig23Run simulates one RC-vs-RLC pair for the given segment totals.
func fig23Run(ctx context.Context, seg netlist.SegmentRLC) (*Fig23Variant, error) {
	run := func(s netlist.SegmentRLC) (*sim.Result, error) {
		nl := netlist.New()
		nl.AddV("vsrc", "drv", netlist.Ground, netlist.Ramp{V0: 0, V1: Vdd, Start: 10e-12, Rise: RiseTime})
		nl.AddR("rdrv", "drv", "in", DriverRes)
		if _, err := nl.AddLadder("net", "in", "out", s, 10); err != nil {
			return nil, err
		}
		nl.AddC("cl", "out", netlist.Ground, SinkCap)
		return sim.TransientCtx(ctx, nl, 0.25e-12, 1000e-12, []string{"in", "out"})
	}
	rcSeg := seg
	rcSeg.L = 0
	resRC, err := run(rcSeg)
	if err != nil {
		return nil, err
	}
	resRLC, err := run(seg)
	if err != nil {
		return nil, err
	}
	v := &Fig23Variant{Time: resRC.Time}
	v.InRC, _ = resRC.Waveform("in")
	v.OutRC, _ = resRC.Waveform("out")
	v.InRLC, _ = resRLC.Waveform("in")
	v.OutRLC, _ = resRLC.Waveform("out")

	// Delay from the buffer switching instant (the ramp's 50 % point,
	// at 10 ps + RiseTime/2) to the sink crossing.
	t0 := 10e-12 + RiseTime/2
	dsinkRC, err := sim.DelayFromT0(v.Time, v.OutRC, 0, Vdd)
	if err != nil {
		return nil, fmt.Errorf("paper: RC sink never switches: %w", err)
	}
	dsinkRLC, err := sim.DelayFromT0(v.Time, v.OutRLC, 0, Vdd)
	if err != nil {
		return nil, fmt.Errorf("paper: RLC sink never switches: %w", err)
	}
	v.DelayRC = dsinkRC - t0
	v.DelayRLC = dsinkRLC - t0
	v.OvershootRLC, v.UndershootRLC = sim.Overshoot(v.OutRLC, 0, Vdd)
	v.OvershootRC, _ = sim.Overshoot(v.OutRC, 0, Vdd)
	return v, nil
}

// Fig23 runs E1 with the given extractor.
func Fig23(ctx context.Context, e *core.Extractor) (*Fig23Result, error) {
	seg := Fig1Segment()
	rlc, err := e.SegmentRLCCtx(ctx, seg)
	if err != nil {
		return nil, err
	}
	out := &Fig23Result{RLC: rlc}
	ext, err := fig23Run(ctx, rlc)
	if err != nil {
		return nil, err
	}
	out.Extracted = *ext
	cal := rlc
	cal.C = CalibratedLineCap
	calv, err := fig23Run(ctx, cal)
	if err != nil {
		return nil, err
	}
	out.Calibrated = *calv
	part, err := fig23PartialRun(ctx, e, seg, cal)
	if err != nil {
		return nil, err
	}
	out.CalibratedPartial = *part
	return out, nil
}

// fig23PartialRun simulates the calibrated RC baseline against the
// end-bonded sectioned-PEEC netlist.
func fig23PartialRun(ctx context.Context, e *core.Extractor, seg core.Segment, cal netlist.SegmentRLC) (*Fig23Variant, error) {
	mk := func(withL bool) (*sim.Result, error) {
		nl := netlist.New()
		nl.AddV("vsrc", "drv", netlist.Ground, netlist.Ramp{V0: 0, V1: Vdd, Start: 10e-12, Rise: RiseTime})
		nl.AddR("rdrv", "drv", "in", DriverRes)
		if withL {
			err := e.PartialNetlistOpts(nl, "net", "in", "out", seg, core.PartialOptions{
				Sections:     10,
				EndBondsOnly: true,
				CapOverride:  cal.C,
			})
			if err != nil {
				return nil, err
			}
		} else {
			rc := cal
			rc.L = 0
			if _, err := nl.AddLadder("net", "in", "out", rc, 10); err != nil {
				return nil, err
			}
		}
		nl.AddC("cl", "out", netlist.Ground, SinkCap)
		return sim.TransientCtx(ctx, nl, 0.25e-12, 1000e-12, []string{"in", "out"})
	}
	resRC, err := mk(false)
	if err != nil {
		return nil, err
	}
	resRLC, err := mk(true)
	if err != nil {
		return nil, err
	}
	v := &Fig23Variant{Time: resRC.Time}
	v.InRC, _ = resRC.Waveform("in")
	v.OutRC, _ = resRC.Waveform("out")
	v.InRLC, _ = resRLC.Waveform("in")
	v.OutRLC, _ = resRLC.Waveform("out")
	t0 := 10e-12 + RiseTime/2
	dRC, err := sim.DelayFromT0(v.Time, v.OutRC, 0, Vdd)
	if err != nil {
		return nil, err
	}
	dRLC, err := sim.DelayFromT0(v.Time, v.OutRLC, 0, Vdd)
	if err != nil {
		return nil, err
	}
	v.DelayRC = dRC - t0
	v.DelayRLC = dRLC - t0
	v.OvershootRLC, v.UndershootRLC = sim.Overshoot(v.OutRLC, 0, Vdd)
	v.OvershootRC, _ = sim.Overshoot(v.OutRC, 0, Vdd)
	return v, nil
}

// Fig5Result is experiment E2: the loop inductance matrix of a 5-trace
// array over a ground plane (a), the 1-trace subproblem (b) and the
// 2-trace subproblem (c), demonstrating Foundations 1 and 2.
type Fig5Result struct {
	// Full is the 5×5 loop matrix of the full array (H).
	Full *linalg.Matrix
	// SelfSolo is T1's loop self inductance solved alone.
	SelfSolo float64
	// MutualPair is the T1–T5 loop mutual from the 2-trace solve.
	MutualPair float64
	// Foundation1Err and Foundation2Err are the relative deviations
	// |full − subproblem| / subproblem.
	Foundation1Err, Foundation2Err float64
}

// Fig5 runs E2. The array follows the figure: five traces in layer N
// with a ground plane in layer N−2.
func Fig5() (*Fig5Result, error) {
	plane := &geom.GroundPlane{
		Z:         -units.Um(3),
		Thickness: units.Um(1),
		Width:     units.Um(80),
		Rho:       units.RhoCopper,
	}
	array := geom.TraceArray(5, units.Um(2000), units.Um(2), units.Um(2), units.Um(1), 0, units.RhoCopper)
	array.IsGround = make([]bool, 5) // all signals; the plane is the return
	array.PlaneBelow = plane
	opts := loop.Options{Frequency: Fsig, PlaneStrips: 16}

	full, err := loop.LoopMatrix(array, opts)
	if err != nil {
		return nil, err
	}
	solo := &geom.Block{
		Traces:     []geom.Trace{array.Traces[0]},
		IsGround:   []bool{false},
		PlaneBelow: plane,
		Rho:        units.RhoCopper,
	}
	soloSol, err := loop.SolveBlock(solo, 0, opts)
	if err != nil {
		return nil, err
	}
	pair := &geom.Block{
		Traces:     []geom.Trace{array.Traces[0], array.Traces[4]},
		IsGround:   []bool{false, false},
		PlaneBelow: plane,
		Rho:        units.RhoCopper,
	}
	pairSol, err := loop.SolveBlock(pair, 0, opts)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{
		Full:       full,
		SelfSolo:   soloSol.L,
		MutualPair: pairSol.MutualL[0],
	}
	res.Foundation1Err = math.Abs(full.At(0, 0)-res.SelfSolo) / res.SelfSolo
	res.Foundation2Err = math.Abs(full.At(0, 4)-res.MutualPair) / math.Abs(res.MutualPair)
	return res, nil
}

// Table1Row is one row of experiment E3.
type Table1Row struct {
	Name        string
	FullL       float64 // whole-tree extraction (H)
	CascadedL   float64 // series/parallel combination (H)
	ErrPercent  float64
	PaperErrPct float64
}

// Table1 runs E3: the two Fig. 6 trees, full extraction vs linear
// cascading.
func Table1(ctx context.Context) ([]Table1Row, error) {
	mk := []struct {
		name  string
		build func(rho float64) (*cascade.Tree, error)
		paper float64
	}{
		{"Fig. 6(a)", cascade.Fig6a, 3.57},
		{"Fig. 6(b)", cascade.Fig6b, 1.55},
	}
	var rows []Table1Row
	for _, m := range mk {
		tr, err := m.build(units.RhoCopper)
		if err != nil {
			return nil, err
		}
		full, err := tr.FullLoopLCtx(ctx, Fsig)
		if err != nil {
			return nil, err
		}
		casc, err := tr.CascadedLoopLCtx(ctx, Fsig)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Name:        m.name,
			FullL:       full,
			CascadedL:   casc,
			ErrPercent:  math.Abs(casc-full) / full * 100,
			PaperErrPct: m.paper,
		})
	}
	return rows, nil
}

// SkewResult is experiment E4: H-tree skew with and without
// inductance under a sink load imbalance.
type SkewResult struct {
	ArrivalRC, ArrivalRLC float64 // nominal leaf arrival
	SkewRC, SkewRLC       float64 // with the load imbalance
	SkewErrPercent        float64 // RC-only misestimate of skew
}

// HTreeSkew runs E4 on a 2-level H-tree (16 leaves) with a 4× load on
// leaf 0.
func HTreeSkew(ctx context.Context, e *core.Extractor, shield geom.Shielding) (*SkewResult, error) {
	seg := Fig1Segment()
	seg.Shielding = shield
	buf := clocktree.Buffer{
		DriveRes:       DriverRes,
		InputCap:       SinkCap,
		IntrinsicDelay: 30e-12,
		OutSlew:        RiseTime,
	}
	tree, err := clocktree.NewTree(clocktree.HTreeLevels(units.Um(4000), 2, seg), buf, e)
	if err != nil {
		return nil, err
	}
	res := &SkewResult{}
	nomRC, err := tree.ArrivalsCtx(ctx, clocktree.SimOptions{WithL: false})
	if err != nil {
		return nil, err
	}
	nomRLC, err := tree.ArrivalsCtx(ctx, clocktree.SimOptions{WithL: true})
	if err != nil {
		return nil, err
	}
	res.ArrivalRC, res.ArrivalRLC = nomRC[0], nomRLC[0]
	imbalance := map[int]float64{0: 4}
	repRC, err := tree.SkewReportCtx(ctx, clocktree.SimOptions{WithL: false, LeafLoadScale: imbalance})
	if err != nil {
		return nil, err
	}
	repRLC, err := tree.SkewReportCtx(ctx, clocktree.SimOptions{WithL: true, LeafLoadScale: imbalance})
	if err != nil {
		return nil, err
	}
	res.SkewRC, res.SkewRLC = repRC.Skew, repRLC.Skew
	res.SkewErrPercent = math.Abs(res.SkewRLC-res.SkewRC) / res.SkewRLC * 100
	return res, nil
}

// LengthSweepRow is one point of experiment E5 (super-linear L vs
// length).
type LengthSweepRow struct {
	Length    float64
	SelfL     float64
	MutualL   float64 // to a parallel neighbour at 5 µm
	SelfRatio float64 // L(len)/L(len/2)
	MutRatio  float64
}

// LengthSweep runs E5 over doubling lengths.
func LengthSweep() []LengthSweepRow {
	w, t := units.Um(1.2), units.Um(1)
	d := units.Um(5)
	var rows []LengthSweepRow
	for _, lu := range []float64{250, 500, 1000, 2000, 4000, 8000} {
		l := units.Um(lu)
		row := LengthSweepRow{
			Length:  l,
			SelfL:   peec.SelfGMD(l, w, t),
			MutualL: peec.MutualFilamentsAligned(l, d),
		}
		half := l / 2
		row.SelfRatio = row.SelfL / peec.SelfGMD(half, w, t)
		row.MutRatio = row.MutualL / peec.MutualFilamentsAligned(half, d)
		rows = append(rows, row)
	}
	return rows
}

// TableAccuracy is experiment E6: table lookup vs direct solve over
// off-grid probes.
type TableAccuracy struct {
	MaxSelfErr, MaxMutualErr, MaxLoopErr float64
	Probes                               int
}

// CheckTables runs E6.
func CheckTables(ctx context.Context, e *core.Extractor) (*TableAccuracy, error) {
	set, err := e.Tables(geom.ShieldNone)
	if err != nil {
		return nil, err
	}
	acc := &TableAccuracy{}
	type probe struct{ w, l float64 }
	selfProbes := []probe{
		{units.Um(1.7), units.Um(300)},
		{units.Um(4.3), units.Um(1450)},
		{units.Um(9.1), units.Um(5200)},
		{units.Um(10), units.Um(6000)},
	}
	for _, p := range selfProbes {
		got, err := set.SelfL(p.w, p.l)
		if err != nil {
			return nil, err
		}
		rl, err := peec.EffectiveRL(
			peec.Bar{Axis: peec.AxisX, O: [3]float64{0, -p.w / 2, 0}, L: p.l, W: p.w, T: e.Tech.Thickness},
			e.Tech.Rho, e.Frequency, 4, 2)
		if err != nil {
			return nil, err
		}
		if rel := math.Abs(got-rl.L) / rl.L; rel > acc.MaxSelfErr {
			acc.MaxSelfErr = rel
		}
		acc.Probes++
	}
	type mprobe struct{ w1, w2, s, l float64 }
	for _, p := range []mprobe{
		{units.Um(2), units.Um(7), units.Um(1.3), units.Um(900)},
		{units.Um(10), units.Um(5), units.Um(1), units.Um(6000)},
		{units.Um(3), units.Um(3), units.Um(6), units.Um(2500)},
	} {
		got, err := set.MutualL(p.w1, p.w2, p.s, p.l)
		if err != nil {
			return nil, err
		}
		a := peec.Bar{Axis: peec.AxisX, O: [3]float64{0, 0, 0}, L: p.l, W: p.w1, T: e.Tech.Thickness}
		b := peec.Bar{Axis: peec.AxisX, O: [3]float64{0, p.w1 + p.s, 0}, L: p.l, W: p.w2, T: e.Tech.Thickness}
		want := peec.HoerLoveMutual(a, b)
		if rel := math.Abs(got-want) / want; rel > acc.MaxMutualErr {
			acc.MaxMutualErr = rel
		}
		acc.Probes++
	}
	// Composed loop L vs direct solve across a few segments.
	for _, seg := range []core.Segment{
		Fig1Segment(),
		{Length: units.Um(1500), SignalWidth: units.Um(4), GroundWidth: units.Um(4), Spacing: units.Um(2), Shielding: geom.ShieldNone},
	} {
		got, err := e.LoopLCtx(ctx, seg)
		if err != nil {
			return nil, err
		}
		want, err := e.DirectLoopLCtx(ctx, seg)
		if err != nil {
			return nil, err
		}
		if rel := math.Abs(got-want) / want; rel > acc.MaxLoopErr {
			acc.MaxLoopErr = rel
		}
		acc.Probes++
	}
	return acc, nil
}

// FreqSweepRow is one point of experiment E7: R(f), L(f) of the Fig. 1
// signal trace.
type FreqSweepRow struct {
	Freq float64
	R, L float64
}

// FreqSweep runs E7.
func FreqSweep() ([]FreqSweepRow, error) {
	seg := Fig1Segment()
	bar := peec.Bar{
		Axis: peec.AxisX,
		O:    [3]float64{0, -seg.SignalWidth / 2, 0},
		L:    seg.Length, W: seg.SignalWidth, T: units.Um(2),
	}
	var rows []FreqSweepRow
	for _, f := range []float64{0, 0.5e9, 1e9, 2e9, 3.2e9, Fsig, 10e9, 20e9} {
		rl, err := peec.EffectiveRL(bar, units.RhoCopper, f, 12, 4)
		if err != nil {
			return nil, err
		}
		rows = append(rows, FreqSweepRow{Freq: f, R: rl.R, L: rl.L})
	}
	return rows, nil
}

// ShieldCompare is experiment E8: CPW (Fig. 8) vs microstrip (Fig. 9)
// building blocks.
type ShieldCompare struct {
	LoopCPW, LoopMS   float64
	DelayCPW, DelayMS float64
}

// CompareShields runs E8 on the Fig. 1 segment.
func CompareShields(ctx context.Context, e *core.Extractor) (*ShieldCompare, error) {
	out := &ShieldCompare{}
	seg := Fig1Segment()
	var err error
	if out.LoopCPW, err = e.LoopLCtx(ctx, seg); err != nil {
		return nil, err
	}
	ms := seg
	ms.Shielding = geom.ShieldMicrostrip
	if out.LoopMS, err = e.LoopLCtx(ctx, ms); err != nil {
		return nil, err
	}
	delay := func(s core.Segment) (float64, error) {
		rlc, err := e.SegmentRLCCtx(ctx, s)
		if err != nil {
			return 0, err
		}
		nl := netlist.New()
		nl.AddV("vsrc", "drv", netlist.Ground, netlist.Ramp{V0: 0, V1: Vdd, Start: 10e-12, Rise: RiseTime})
		nl.AddR("rdrv", "drv", "in", DriverRes)
		if _, err := nl.AddLadder("net", "in", "out", rlc, 10); err != nil {
			return 0, err
		}
		nl.AddC("cl", "out", netlist.Ground, SinkCap)
		d, err := sim.DelaysFromT0Ctx(ctx, nl, 0.25e-12, 1000e-12, []string{"out"}, 0, Vdd)
		if err != nil {
			return 0, err
		}
		return d[0] - (10e-12 + RiseTime/2), nil
	}
	if out.DelayCPW, err = delay(seg); err != nil {
		return nil, err
	}
	if out.DelayMS, err = delay(ms); err != nil {
		return nil, err
	}
	return out, nil
}

// VariationResult is experiment E9.
type VariationResult struct {
	RSpread, CSpread, LSpread statrc.Spread
}

// ProcessVariation runs E9 on the Fig. 1 segment with typical sigmas.
func ProcessVariation(ctx context.Context, e *core.Extractor, samples int) (*VariationResult, error) {
	v := statrc.Variation{EdgeBiasSigma: 0.03e-6, ThicknessSigma: 0.06, HeightSigma: 0.05}
	r, c, l, err := statrc.MonteCarlo(ctx, e, Fig1Segment(), v, samples, 2000)
	if err != nil {
		return nil, err
	}
	return &VariationResult{RSpread: r, CSpread: c, LSpread: l}, nil
}
