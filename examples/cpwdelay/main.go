// cpwdelay reproduces the paper's motivating example (Figs. 1–3): a
// 6000 µm co-planar waveguide clock net driven by a 40 Ω buffer,
// simulated as an RC netlist and as an RLC netlist. It prints the
// extracted parasitics, both delays, the ringing metrics, and
// optionally a CSV with all four waveforms for plotting.
//
// Usage: cpwdelay [waveforms.csv]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"clockrlc"
)

func main() {
	ctx := context.Background()
	tech := clockrlc.Technology{
		Thickness:      clockrlc.Um(2),
		Rho:            clockrlc.RhoCopper,
		EpsRel:         clockrlc.EpsSiO2,
		CapHeight:      clockrlc.Um(2),
		PlaneGap:       clockrlc.Um(2),
		PlaneThickness: clockrlc.Um(1),
	}
	const riseTime = 50e-12
	freq := clockrlc.SignificantFrequency(riseTime)
	fmt.Fprintf(os.Stderr, "building tables at %.2f GHz...\n", freq/1e9)
	ext, err := clockrlc.NewExtractor(tech, freq, clockrlc.DefaultAxes(),
		[]clockrlc.Shielding{clockrlc.ShieldNone})
	if err != nil {
		log.Fatal(err)
	}

	// Fig. 1: 6000 µm long, 10 µm signal, 5 µm grounds, 1 µm gaps.
	seg := clockrlc.Segment{
		Length:      clockrlc.Um(6000),
		SignalWidth: clockrlc.Um(10),
		GroundWidth: clockrlc.Um(5),
		Spacing:     clockrlc.Um(1),
		Shielding:   clockrlc.ShieldNone,
	}
	rlc, err := ext.SegmentRLCCtx(ctx, seg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig. 1 net: R = %.2f Ω, loop L = %.2f nH, C = %.2f pF\n",
		rlc.R, clockrlc.ToNH(rlc.L), rlc.C/1e-12)

	type runOut struct {
		time      []float64
		vin, vout []float64
		delay     float64
	}
	run := func(withL bool) runOut {
		s := rlc
		if !withL {
			s.L = 0
		}
		nl := clockrlc.NewNetlist()
		nl.AddV("vsrc", "drv", "0", clockrlc.Ramp{V0: 0, V1: 1, Start: 10e-12, Rise: riseTime})
		nl.AddR("rdrv", "drv", "in", 40)
		if _, err := nl.AddLadder("net", "in", "out", s, 10); err != nil {
			log.Fatal(err)
		}
		nl.AddC("cl", "out", "0", 50*clockrlc.FemtoFarad)
		res, err := clockrlc.Transient(nl, 0.25e-12, 800e-12, []string{"in", "out"})
		if err != nil {
			log.Fatal(err)
		}
		vin, _ := res.Waveform("in")
		vout, _ := res.Waveform("out")
		d, err := clockrlc.DelayFromT0(res.Time, vout, 0, 1)
		if err != nil {
			log.Fatal(err)
		}
		return runOut{res.Time, vin, vout, d - (10e-12 + riseTime/2)}
	}

	rc := run(false)
	rlcRun := run(true)
	fmt.Printf("full extraction, delay (buffer switch → sink): RC-only %.1f ps, RLC %.1f ps (ratio %.2f)\n",
		clockrlc.ToPS(rc.delay), clockrlc.ToPS(rlcRun.delay), rlcRun.delay/rc.delay)
	over, under := clockrlc.Overshoot(rlcRun.vout, 0, 1)
	fmt.Printf("RLC sink ringing: overshoot %.1f%%, undershoot %.1f%%\n", over*100, under*100)

	// The paper's own 28.01 ps RC delay implies a line capacitance of
	// ≈1.0 pF (its stack differs from ours in unstated ways); with C
	// calibrated to that value the inductive delay inflation and the
	// Fig. 3 ringing emerge clearly.
	calC := 28.01e-12 / (0.6931 * 40)
	rlc.C = calC
	rcCal := run(false)
	rlcCal := run(true)
	overC, underC := clockrlc.Overshoot(rlcCal.vout, 0, 1)
	fmt.Printf("paper-calibrated C = %.2f pF: RC-only %.1f ps, RLC %.1f ps (ratio %.2f), overshoot %.1f%%, undershoot %.1f%%\n",
		calC/1e-12, clockrlc.ToPS(rcCal.delay), clockrlc.ToPS(rlcCal.delay),
		rlcCal.delay/rcCal.delay, overC*100, underC*100)
	fmt.Println("paper: 28.01 ps → 47.6 ps with visible ringing")

	if len(os.Args) > 1 {
		f, err := os.Create(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(f, "t_ps,in_rc,out_rc,in_rlc,out_rlc")
		for i, t := range rc.time {
			fmt.Fprintf(f, "%.3f,%.5f,%.5f,%.5f,%.5f\n",
				clockrlc.ToPS(t), rc.vin[i], rc.vout[i], rlcRun.vin[i], rlcRun.vout[i])
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("waveforms written to", os.Args[1])
	}
}
