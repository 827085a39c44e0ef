// screening shows the decision workflow around the paper's extractor:
//
//  1. screen each net cheaply — does inductance matter at all for this
//     driver/geometry/edge combination?
//  2. for nets that pass, extract RLC through the tables and compare
//     the closed-form delay estimates (Elmore RC vs two-pole RLC)
//     against full transient simulation;
//  3. check the shielding: sweep the shield width and measure the
//     crosstalk an adjacent aggressor injects (Section IV's "at least
//     equal width" rule).
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

	// --- 1. screen a mix of nets ---------------------------------
	nets := []struct {
		name string
		seg  clockrlc.Segment
		rd   float64
	}{
		{"clock spine (wide, strong driver)", clockrlc.Segment{
			Length: clockrlc.Um(6000), SignalWidth: clockrlc.Um(10),
			GroundWidth: clockrlc.Um(5), Spacing: clockrlc.Um(1),
			Shielding: clockrlc.ShieldNone}, 15},
		{"branch (medium)", clockrlc.Segment{
			Length: clockrlc.Um(2000), SignalWidth: clockrlc.Um(4),
			GroundWidth: clockrlc.Um(4), Spacing: clockrlc.Um(1),
			Shielding: clockrlc.ShieldNone}, 60},
		{"local route (narrow, weak driver)", clockrlc.Segment{
			Length: clockrlc.Um(1500), SignalWidth: clockrlc.Um(1),
			GroundWidth: clockrlc.Um(1), Spacing: clockrlc.Um(1),
			Shielding: clockrlc.ShieldNone}, 500},
	}
	fmt.Println("--- inductance screen ---")
	for _, n := range nets {
		rlc, err := ext.SegmentRLCCtx(ctx, n.seg)
		if err != nil {
			log.Fatal(err)
		}
		line := clockrlc.DelayLine{Rd: n.rd, R: rlc.R, L: rlc.L, C: rlc.C, Cl: 50e-15}
		v, err := clockrlc.ScreenInductance(line, riseTime)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36s %v\n", n.name, v)
	}

	// --- 2. delay estimates vs simulation ------------------------
	fmt.Println("\n--- closed-form delay vs transient simulation (clock spine) ---")
	seg := nets[0].seg
	rlc, err := ext.SegmentRLCCtx(ctx, seg)
	if err != nil {
		log.Fatal(err)
	}
	line := clockrlc.DelayLine{Rd: nets[0].rd, R: rlc.R, L: rlc.L, C: rlc.C, Cl: 50e-15}
	elm, err := clockrlc.ElmoreDelay(clockrlc.DelayLine{
		Rd: line.Rd, R: line.R, C: line.C, Cl: line.Cl})
	if err != nil {
		log.Fatal(err)
	}
	two, err := clockrlc.TwoPoleDelay(line)
	if err != nil {
		log.Fatal(err)
	}
	nl := clockrlc.NewNetlist()
	nl.AddV("v", "drv", "0", clockrlc.Ramp{V0: 0, V1: 1, Start: 1e-12, Rise: 1e-13})
	nl.AddR("rd", "drv", "in", line.Rd)
	if _, err := nl.AddLadder("w", "in", "out", rlc, 10); err != nil {
		log.Fatal(err)
	}
	nl.AddC("cl", "out", "0", line.Cl)
	res, err := clockrlc.Transient(nl, 0.2e-12, 800e-12, []string{"out"})
	if err != nil {
		log.Fatal(err)
	}
	vout, _ := res.Waveform("out")
	meas, err := clockrlc.DelayFromT0(res.Time, vout, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	zeta, _ := clockrlc.DampingRatio(line)
	fmt.Printf("ζ = %.2f | Elmore (RC) %.1f ps | two-pole (RLC) %.1f ps | simulated %.1f ps\n",
		zeta, clockrlc.ToPS(elm), clockrlc.ToPS(two), clockrlc.ToPS(meas))

	// --- 3. shield-width sweep -----------------------------------
	fmt.Println("\n--- crosstalk vs shield width (Section IV rule) ---")
	base := clockrlc.XtalkScenario{
		Victim: clockrlc.Segment{
			Length: clockrlc.Um(2000), SignalWidth: clockrlc.Um(4),
			GroundWidth: clockrlc.Um(4), Spacing: clockrlc.Um(1),
			Shielding: clockrlc.ShieldNone,
		},
		AggressorWidth:   clockrlc.Um(4),
		AggressorSpacing: clockrlc.Um(1),
		Sections:         6,
		RiseTime:         riseTime,
	}
	pts, err := clockrlc.ShieldWidthSweep(ext, base, []float64{0.25, 0.5, 1, 2})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pts {
		fmt.Printf("shield/signal = %-5.2f peak victim noise %.1f mV\n", p.WidthRatio, p.PeakNoise*1e3)
	}
	un := base
	un.Unshielded = true
	unRes, err := clockrlc.RunCrosstalk(ext, un)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unshielded           peak victim noise %.1f mV\n", unRes.PeakNoise*1e3)
}
