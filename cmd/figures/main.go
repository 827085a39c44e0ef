// Command figures regenerates every table and figure of the paper's
// evaluation. Each experiment prints the rows/series the paper
// reports, side by side with the paper's numbers where it states them.
//
// Usage:
//
//	figures -exp all
//	figures -exp fig23 [-csv waveforms.csv]
//	figures -exp fig5|table1|skew|length|tables|freq|shields|stat
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"clockrlc/internal/cliobs"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/paper"
	"clockrlc/internal/units"
)

func main() {
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	exp := flag.String("exp", "all", "experiment: all, fig23, fig5, table1, skew, length, tables, freq, shields, stat, shieldrule, repeater, busnoise, skewvar")
	csv := flag.String("csv", "", "write the Fig. 2/3 waveforms to this CSV file")
	samples := flag.Int("samples", 60, "Monte-Carlo samples for -exp stat")
	flag.Parse()

	sd := cliobs.NotifyShutdown()
	sess, err := obsFlags.Start("figures")
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(cliobs.ExitFailure)
	}
	err = run(sess.Context(sd.Context()), *exp, *csv, *samples)
	sess.Close()
	sd.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(sd.ExitCode(err))
	}
}

func run(ctx context.Context, exp, csv string, samples int) error {
	needExt := map[string]bool{
		"all": true, "fig23": true, "skew": true, "tables": true,
		"shields": true, "stat": true, "shieldrule": true,
		"repeater": true, "busnoise": true, "skewvar": true,
	}
	var ext *core.Extractor
	if needExt[exp] {
		fmt.Printf("building inductance tables (f_sig = %.2g GHz)...\n\n", paper.Fsig/1e9)
		var err error
		ext, err = paper.NewExtractor(ctx)
		if err != nil {
			return err
		}
	}
	all := exp == "all"
	ran := false
	try := func(name string, f func() error) error {
		if !all && exp != name {
			return nil
		}
		// A SIGINT between experiments stops the remaining ones cleanly.
		if err := ctx.Err(); err != nil {
			return err
		}
		ran = true
		fmt.Printf("==== %s ====\n", strings.ToUpper(name))
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println()
		return nil
	}
	steps := []struct {
		name string
		f    func() error
	}{
		{"fig23", func() error { return fig23(ctx, ext, csv) }},
		{"fig5", fig5},
		{"table1", func() error { return table1(ctx) }},
		{"skew", func() error { return skew(ctx, ext) }},
		{"length", length},
		{"tables", func() error { return tables(ctx, ext) }},
		{"freq", freq},
		{"shields", func() error { return shields(ctx, ext) }},
		{"stat", func() error { return stat(ctx, ext, samples) }},
		{"shieldrule", func() error { return shieldRule(ctx, ext) }},
		{"repeater", func() error { return repeaterExp(ctx, ext) }},
		{"busnoise", func() error { return busNoise(ctx, ext) }},
		{"skewvar", func() error { return skewVar(ctx, ext) }},
	}
	for _, s := range steps {
		if err := try(s.name, s.f); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func fig23(ctx context.Context, ext *core.Extractor, csv string) error {
	res, err := paper.Fig23(ctx, ext)
	if err != nil {
		return err
	}
	fmt.Println("E1 — Fig. 1 configuration (6000 µm CPW, 10/5 µm wires, 1 µm gaps, 40 Ω driver)")
	fmt.Printf("extracted totals: R = %.2f Ω, L = %.2f nH, C = %.2f pF\n",
		res.RLC.R, units.ToNH(res.RLC.L), res.RLC.C/1e-12)
	fmt.Printf("%-34s %12s %12s %8s %10s %10s\n", "variant", "RC delay", "RLC delay", "ratio", "overshoot", "undershoot")
	row := func(name string, v paper.Fig23Variant) {
		fmt.Printf("%-34s %9.1f ps %9.1f ps %8.2f %9.1f%% %9.1f%%\n",
			name, units.ToPS(v.DelayRC), units.ToPS(v.DelayRLC),
			v.DelayRLC/v.DelayRC, v.OvershootRLC*100, v.UndershootRLC*100)
	}
	row("full extraction (loop ladder)", res.Extracted)
	row("calibrated C (loop ladder)", res.Calibrated)
	row("calibrated C (PEEC, end bonds)", res.CalibratedPartial)
	fmt.Printf("%-34s %9.2f ps %9.1f ps %8.2f   (overshoot visible in Fig. 3)\n",
		"paper (Figs. 2/3)", 28.01, 47.6, 47.6/28.01)
	if csv != "" {
		if err := writeWaveCSV(csv, res); err != nil {
			return err
		}
		fmt.Printf("waveforms written to %s\n", csv)
	}
	return nil
}

func writeWaveCSV(path string, res *paper.Fig23Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	v := res.CalibratedPartial
	fmt.Fprintln(f, "t_ps,in_rc,out_rc,in_rlc,out_rlc")
	for i, t := range v.Time {
		fmt.Fprintf(f, "%.3f,%.5f,%.5f,%.5f,%.5f\n",
			units.ToPS(t), v.InRC[i], v.OutRC[i], v.InRLC[i], v.OutRLC[i])
	}
	return f.Close()
}

func fig5() error {
	res, err := paper.Fig5()
	if err != nil {
		return err
	}
	fmt.Println("E2 — Fig. 5: loop inductance (nH) of a 5-trace array over a ground plane")
	fmt.Println("(a) full-array loop matrix:")
	m := res.Full
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Printf(" %7.3f", units.ToNH(m.At(i, j)))
		}
		fmt.Println()
	}
	fmt.Printf("(b) T1 alone:        self = %.3f nH (Foundation 1 deviation %.2g)\n",
		units.ToNH(res.SelfSolo), res.Foundation1Err)
	fmt.Printf("(c) T1+T5 only:      mutual = %.3f nH (Foundation 2 deviation %.2g)\n",
		units.ToNH(res.MutualPair), res.Foundation2Err)
	fmt.Println("paper: both foundations hold (its example shows matching 4.8/2.x entries)")
	return nil
}

func table1(ctx context.Context) error {
	rows, err := paper.Table1(ctx)
	if err != nil {
		return err
	}
	fmt.Println("E3 — Table I: linear cascading comparisons")
	fmt.Printf("%-10s %14s %16s %10s %12s\n", "tree", "full-tree L", "cascaded S/P L", "error", "paper error")
	for _, r := range rows {
		fmt.Printf("%-10s %11.4f nH %13.4f nH %9.2f%% %11.2f%%\n",
			r.Name, units.ToNH(r.FullL), units.ToNH(r.CascadedL), r.ErrPercent, r.PaperErrPct)
	}
	return nil
}

func skew(ctx context.Context, ext *core.Extractor) error {
	fmt.Println("E4 — Section V: H-tree skew with vs without inductance (4× load on one leaf)")
	res, err := paper.HTreeSkew(ctx, ext, geom.ShieldNone)
	if err != nil {
		return err
	}
	fmt.Printf("nominal leaf arrival: RC %.1f ps, RLC %.1f ps (ratio %.2f)\n",
		units.ToPS(res.ArrivalRC), units.ToPS(res.ArrivalRLC), res.ArrivalRLC/res.ArrivalRC)
	fmt.Printf("skew under imbalance: RC %.2f ps, RLC %.2f ps → RC-only misestimates skew by %.1f%%\n",
		units.ToPS(res.SkewRC), units.ToPS(res.SkewRLC), res.SkewErrPercent)
	fmt.Println("paper: \"without consideration of inductance ... the difference can be more than 10%\"")
	return nil
}

func length() error {
	fmt.Println("E5 — Section V: super-linear inductance growth with length (w = 1.2 µm)")
	fmt.Printf("%10s %12s %12s %14s %14s\n", "len (µm)", "self L (nH)", "mutual (nH)", "self ×2 ratio", "mutual ×2 ratio")
	for _, r := range paper.LengthSweep() {
		fmt.Printf("%10.0f %12.4f %12.4f %14.3f %14.3f\n",
			units.ToUm(r.Length), units.ToNH(r.SelfL), units.ToNH(r.MutualL), r.SelfRatio, r.MutRatio)
	}
	fmt.Println("paper: 1000 µm → 2000 µm increases self and mutual L by ≈2.1–2.4×")
	return nil
}

func tables(ctx context.Context, ext *core.Extractor) error {
	fmt.Println("E6 — Section III: table lookup accuracy vs direct extraction")
	acc, err := paper.CheckTables(ctx, ext)
	if err != nil {
		return err
	}
	fmt.Printf("probes: %d\n", acc.Probes)
	fmt.Printf("max self-entry error:   %.2f%%\n", acc.MaxSelfErr*100)
	fmt.Printf("max mutual-entry error: %.2f%%\n", acc.MaxMutualErr*100)
	fmt.Printf("max composed-loop error vs proximity-resolved solve: %.1f%%\n", acc.MaxLoopErr*100)
	fmt.Println("paper: \"no loss of accuracy during the reduction\" (relative to its uniform-current PEEC model)")
	return nil
}

func freq() error {
	fmt.Println("E7 — skin effect: R(f), L(f) of the Fig. 1 signal trace")
	rows, err := paper.FreqSweep()
	if err != nil {
		return err
	}
	fmt.Printf("%10s %10s %12s\n", "f (GHz)", "R (Ω)", "L (nH)")
	for _, r := range rows {
		fmt.Printf("%10.2f %10.3f %12.4f\n", r.Freq/1e9, r.R, units.ToNH(r.L))
	}
	fmt.Printf("extraction frequency (0.32/tr): %.2f GHz\n", paper.Fsig/1e9)
	return nil
}

func shields(ctx context.Context, ext *core.Extractor) error {
	fmt.Println("E8 — Fig. 8 vs Fig. 9: coplanar waveguide vs microstrip building blocks")
	res, err := paper.CompareShields(ctx, ext)
	if err != nil {
		return err
	}
	fmt.Printf("loop L:  CPW %.3f nH, microstrip %.3f nH (plane cuts L by %.0f%%)\n",
		units.ToNH(res.LoopCPW), units.ToNH(res.LoopMS),
		(1-res.LoopMS/res.LoopCPW)*100)
	fmt.Printf("delay:   CPW %.1f ps, microstrip %.1f ps\n",
		units.ToPS(res.DelayCPW), units.ToPS(res.DelayMS))
	return nil
}

func stat(ctx context.Context, ext *core.Extractor, samples int) error {
	fmt.Printf("E9 — Section V: process variation, %d Monte-Carlo samples\n", samples)
	res, err := paper.ProcessVariation(ctx, ext, samples)
	if err != nil {
		return err
	}
	fmt.Printf("σR/µR = %.2f%%   σC/µC = %.2f%%   σL/µL = %.2f%%\n",
		res.RSpread.Rel()*100, res.CSpread.Rel()*100, res.LSpread.Rel()*100)
	fmt.Println("paper: \"inductance is not sensitive to process variation\" — combine nominal L with statistical RC")
	return nil
}

func shieldRule(ctx context.Context, ext *core.Extractor) error {
	fmt.Println("E11 — Section IV: the \"at least equal width\" shielding rule")
	res, err := paper.ShieldRule(ctx, ext, []float64{0.25, 0.5, 1, 2})
	if err != nil {
		return err
	}
	fmt.Printf("%16s %18s %18s\n", "shield/signal", "victim noise (mV)", "cascading error")
	for _, r := range res.Rows {
		fmt.Printf("%16.2f %18.2f %17.2f%%\n", r.WidthRatio, r.PeakNoise*1e3, r.CascadeErrPct)
	}
	fmt.Printf("%16s %18.2f   (ground wires removed)\n", "unshielded", res.UnshieldedNoise*1e3)
	fmt.Println("paper: two ground wires of at least equal width \"completely shield the inductive coupling\"")
	return nil
}

func repeaterExp(ctx context.Context, ext *core.Extractor) error {
	fmt.Println("E12 — repeater insertion on a 16 mm shielded route, RC vs RLC analysis")
	res, err := paper.RepeaterInsertion(ctx, ext)
	if err != nil {
		return err
	}
	fmt.Printf("%4s %16s %16s\n", "n", "RC total (ps)", "RLC total (ps)")
	for i := range res.CurveRC {
		markRC, markRLC := " ", " "
		if res.CurveRC[i].N == res.RC.N {
			markRC = "*"
		}
		if res.CurveRLC[i].N == res.RLC.N {
			markRLC = "*"
		}
		fmt.Printf("%4d %15.1f%s %15.1f%s\n", res.CurveRC[i].N,
			units.ToPS(res.CurveRC[i].Total), markRC,
			units.ToPS(res.CurveRLC[i].Total), markRLC)
	}
	fmt.Printf("optima: RC-only analysis n=%d, RLC-aware n=%d; running the RC choice on the real line costs +%.1f%%\n",
		res.RC.N, res.RLC.N, res.RCPenaltyPct)
	return nil
}

func busNoise(ctx context.Context, ext *core.Extractor) error {
	fmt.Println("E13 — Fig. 4 bus structure: switching noise into a quiet middle bit (5-bit bus, outer shields)")
	res, err := paper.BusNoise(ctx, ext)
	if err != nil {
		return err
	}
	fmt.Printf("one adjacent aggressor:   %.1f mV\n", res.PeakAdjacent*1e3)
	fmt.Printf("all four bits switching:  %.1f mV\n", res.PeakStorm*1e3)
	return nil
}

func skewVar(ctx context.Context, ext *core.Extractor) error {
	fmt.Println("E14 — Section V proposal: nominal L + statistical RC for skew under process variation")
	res, err := paper.SkewVariation(ctx, ext, 12, 424242)
	if err != nil {
		return err
	}
	fmt.Printf("%d Monte-Carlo samples, per-stage variation on a 2-level H-tree\n", res.Samples)
	fmt.Printf("full R/C/L variation:   skew %.3f ± %.3f ps\n",
		units.ToPS(res.FullMean), units.ToPS(res.FullSigma))
	fmt.Printf("nominal L + varied RC:  skew %.3f ± %.3f ps\n",
		units.ToPS(res.NomLMean), units.ToPS(res.NomLSigma))
	fmt.Printf("largest per-sample deviation: %.2f%%\n", res.MaxPairErrPct)
	fmt.Println("paper: \"we can combine the nominal inductance with the statistically generated RC\"")
	return nil
}
