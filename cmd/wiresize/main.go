// Command wiresize optimizes a clock segment's signal width at fixed
// routing pitch — the optimization application of the paper's title.
// Every candidate is re-extracted through the inductance tables (the
// speed that makes the sweep practical) and simulated.
//
// Example:
//
//	wiresize -len 4000 -pitch 4 -wgnd 2 -rdrv 30 -wmin 0.7 -wmax 2.6 -n 7
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"clockrlc/internal/cliobs"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/sizing"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

func main() {
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	var (
		length = flag.Float64("len", 4000, "segment length (µm)")
		pitch  = flag.Float64("pitch", 4, "signal-to-shield centre pitch (µm)")
		wgnd   = flag.Float64("wgnd", 2, "shield width (µm)")
		rdrv   = flag.Float64("rdrv", 30, "driver resistance (Ω)")
		cload  = flag.Float64("cload", 40, "load capacitance (fF)")
		tr     = flag.Float64("tr", 50, "edge rise time (ps)")
		wmin   = flag.Float64("wmin", 0.7, "minimum candidate width (µm)")
		wmax   = flag.Float64("wmax", 2.6, "maximum candidate width (µm)")
		nCand  = flag.Int("n", 7, "number of candidates")
		noL    = flag.Bool("rconly", false, "size with the RC-only netlist")
	)
	flag.Parse()
	sd := cliobs.NotifyShutdown()
	sess, err := obsFlags.Start("wiresize")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wiresize:", err)
		os.Exit(cliobs.ExitFailure)
	}
	err = run(sess.Context(sd.Context()), *length, *pitch, *wgnd, *rdrv, *cload, *tr, *wmin, *wmax, *nCand, !*noL)
	sess.Close()
	sd.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wiresize:", err)
		os.Exit(sd.ExitCode(err))
	}
}

func run(ctx context.Context, length, pitch, wgnd, rdrv, cload, tr, wmin, wmax float64, nCand int, withL bool) error {
	for _, err := range []error{
		cliobs.CheckPositiveFlag("len", length),
		cliobs.CheckAxisFlags("wmin", wmin, "wmax", wmax, "n", nCand),
		cliobs.CheckPositiveFlag("tr", tr),
		cliobs.CheckPositiveFlag("rdrv", rdrv),
		cliobs.CheckPositiveFlag("cload", cload),
		cliobs.CheckPositiveFlag("wgnd", wgnd),
	} {
		if err != nil {
			return err
		}
	}
	// The spacing axis runs from 0.2 µm up to twice the pitch.
	if !(pitch > 0.1) {
		return fmt.Errorf("%w: -pitch %g (want above 0.1)", cliobs.ErrBadFlag, pitch)
	}
	tech := core.Technology{
		Thickness:      units.Um(2),
		Rho:            units.RhoCopper,
		EpsRel:         units.EpsSiO2,
		CapHeight:      units.Um(2),
		PlaneGap:       units.Um(2),
		PlaneThickness: units.Um(1),
	}
	freq := units.SignificantFrequency(tr * units.PicoSecond)
	fmt.Fprintf(os.Stderr, "building tables at %.2f GHz...\n", freq/1e9)
	axes := table.Axes{
		Widths:   table.LogAxis(units.Um(wmin/1.5), units.Um(wmax*1.5), 6),
		Spacings: table.LogAxis(units.Um(0.2), units.Um(pitch*2), 6),
		Lengths:  table.LogAxis(units.Um(length/8), units.Um(length*1.5), 6),
	}
	ext, err := core.NewExtractorCtx(ctx, tech, freq, axes, []geom.Shielding{geom.ShieldNone})
	if err != nil {
		return err
	}
	spec := sizing.Spec{
		Length:      units.Um(length),
		Pitch:       units.Um(pitch),
		GroundWidth: units.Um(wgnd),
		Shielding:   geom.ShieldNone,
		DriveRes:    rdrv,
		LoadCap:     cload * units.FemtoFarad,
		RiseTime:    tr * units.PicoSecond,
		WithL:       withL,
	}
	widths := table.LogAxis(units.Um(wmin), units.Um(wmax), nCand)
	best, pts, err := sizing.OptimizeCtx(ctx, ext, spec, widths)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %10s %8s %10s %10s %10s\n", "w (µm)", "gap (µm)", "R (Ω)", "L (nH)", "C (fF)", "delay (ps)")
	for _, p := range pts {
		mark := " "
		if p.Width == best.Width {
			mark = "*"
		}
		fmt.Printf("%9.2f%s %10.2f %8.2f %10.3f %10.1f %10.2f\n",
			units.ToUm(p.Width), mark, units.ToUm(p.Spacing), p.RLC.R,
			units.ToNH(p.RLC.L), units.ToFF(p.RLC.C), units.ToPS(p.Delay))
	}
	fmt.Printf("optimum: w = %.2f µm, delay = %.2f ps\n", units.ToUm(best.Width), units.ToPS(best.Delay))
	return nil
}
