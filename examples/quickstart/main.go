// Quickstart: build inductance tables for one layer, extract a
// shielded clock segment, and simulate its step response with and
// without inductance.
package main

import (
	"context"
	"fmt"
	"log"

	"clockrlc"
)

func main() {
	ctx := context.Background()
	// 1. Describe the technology: 2 µm thick copper clock routing in
	// oxide, capacitive reference 2 µm below, inductive ground plane
	// (for microstrip blocks) 2 µm below the layer.
	tech := clockrlc.Technology{
		Thickness:      clockrlc.Um(2),
		Rho:            clockrlc.RhoCopper,
		EpsRel:         clockrlc.EpsSiO2,
		CapHeight:      clockrlc.Um(2),
		PlaneGap:       clockrlc.Um(2),
		PlaneThickness: clockrlc.Um(1),
	}

	// 2. Pick the extraction frequency from the fastest edge in the
	// design (the paper's 0.32/tr rule) and precompute the tables.
	freq := clockrlc.SignificantFrequency(50 * clockrlc.PicoSecond)
	axes := clockrlc.TableAxes{
		Widths:   clockrlc.LogAxis(clockrlc.Um(1), clockrlc.Um(14), 4),
		Spacings: clockrlc.LogAxis(clockrlc.Um(0.5), clockrlc.Um(10), 4),
		Lengths:  clockrlc.LogAxis(clockrlc.Um(100), clockrlc.Um(6000), 6),
	}
	ext, err := clockrlc.NewExtractor(tech, freq, axes,
		[]clockrlc.Shielding{clockrlc.ShieldNone})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Extract one coplanar-waveguide clock segment: 3 mm long,
	// 8 µm signal guarded by 4 µm grounds at 1 µm.
	seg := clockrlc.Segment{
		Length:      clockrlc.Um(3000),
		SignalWidth: clockrlc.Um(8),
		GroundWidth: clockrlc.Um(4),
		Spacing:     clockrlc.Um(1),
		Shielding:   clockrlc.ShieldNone,
	}
	rlc, err := ext.SegmentRLCCtx(ctx, seg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted: R = %.2f Ω, L = %.3f nH, C = %.1f fF\n",
		rlc.R, clockrlc.ToNH(rlc.L), clockrlc.ToFF(rlc.C))

	// 4. Simulate a 40 Ω buffer driving the segment, with and without
	// the inductance.
	for _, withL := range []bool{false, true} {
		s := rlc
		if !withL {
			s.L = 0
		}
		nl := clockrlc.NewNetlist()
		nl.AddV("vsrc", "drv", "0", clockrlc.Ramp{V0: 0, V1: 1, Start: 5e-12, Rise: 50e-12})
		nl.AddR("rdrv", "drv", "in", 40)
		if _, err := nl.AddLadder("seg", "in", "out", s, 8); err != nil {
			log.Fatal(err)
		}
		nl.AddC("cload", "out", "0", 50*clockrlc.FemtoFarad)

		res, err := clockrlc.Transient(nl, 0.25e-12, 600e-12, []string{"out"})
		if err != nil {
			log.Fatal(err)
		}
		vout, err := res.Waveform("out")
		if err != nil {
			log.Fatal(err)
		}
		d, err := clockrlc.DelayFromT0(res.Time, vout, 0, 1)
		if err != nil {
			log.Fatal(err)
		}
		over, under := clockrlc.Overshoot(vout, 0, 1)
		fmt.Printf("withL=%-5v sink 50%% arrival %.1f ps, overshoot %.1f%%, undershoot %.1f%%\n",
			withL, clockrlc.ToPS(d), over*100, under*100)
	}
}
