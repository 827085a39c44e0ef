// htreeskew runs the paper's Section V application end to end: a
// buffered H-tree clock network with shielded segments, extracted
// through the inductance tables, simulated stage by stage. It
// compares clock skew with and without inductance under a sink load
// imbalance, contrasts the coplanar-waveguide and microstrip building
// blocks, and closes with the process-variation study (nominal L +
// statistical RC).
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
	fmt.Fprintf(os.Stderr, "building CPW and microstrip tables at %.2f GHz...\n", freq/1e9)
	ext, err := clockrlc.NewExtractor(tech, freq, clockrlc.DefaultAxes(), nil)
	if err != nil {
		log.Fatal(err)
	}

	buf := clockrlc.ClockBuffer{
		DriveRes:       40,
		InputCap:       50 * clockrlc.FemtoFarad,
		IntrinsicDelay: 30 * clockrlc.PicoSecond,
		OutSlew:        riseTime,
	}

	for _, sh := range []clockrlc.Shielding{clockrlc.ShieldNone, clockrlc.ShieldMicrostrip} {
		seg := clockrlc.Segment{
			SignalWidth: clockrlc.Um(10),
			GroundWidth: clockrlc.Um(5),
			Spacing:     clockrlc.Um(1),
			Shielding:   sh,
		}
		tree, err := clockrlc.NewClockTree(
			clockrlc.HTreeLevels(clockrlc.Um(4000), 2, seg), buf, ext)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n=== %v H-tree, 2 buffer levels, 16 leaves, 4× load on leaf 0 ===\n", sh)
		imbalance := map[int]float64{0: 4}
		var skews [2]float64
		for i, withL := range []bool{false, true} {
			arr, err := tree.ArrivalsCtx(ctx, clockrlc.ClockSimOptions{
				WithL:         withL,
				LeafLoadScale: imbalance,
			})
			if err != nil {
				log.Fatal(err)
			}
			mn, mx := arr[0], arr[0]
			for _, a := range arr {
				if a < mn {
					mn = a
				}
				if a > mx {
					mx = a
				}
			}
			skews[i] = mx - mn
			label := "RC only"
			if withL {
				label = "RLC    "
			}
			fmt.Printf("%s: arrivals %.1f–%.1f ps, skew %.3f ps\n",
				label, clockrlc.ToPS(mn), clockrlc.ToPS(mx), clockrlc.ToPS(mx-mn))
		}
		fmt.Printf("ignoring inductance misestimates skew by %.1f%% (paper: can exceed 10%%)\n",
			100*abs(skews[1]-skews[0])/skews[1])
	}

	// Process variation: R and C spread, L stays put — so the paper
	// combines nominal L with statistically generated RC.
	fmt.Println("\n=== process variation on one 6 mm CPW segment (60 samples) ===")
	seg := clockrlc.Segment{
		Length:      clockrlc.Um(6000),
		SignalWidth: clockrlc.Um(10),
		GroundWidth: clockrlc.Um(5),
		Spacing:     clockrlc.Um(1),
		Shielding:   clockrlc.ShieldNone,
	}
	v := clockrlc.ProcessVariation{
		EdgeBiasSigma:  0.03e-6,
		ThicknessSigma: 0.06,
		HeightSigma:    0.05,
	}
	r, c, l, err := clockrlc.MonteCarlo(ext, seg, v, 60, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("σR/µR = %.2f%%, σC/µC = %.2f%%, σL/µL = %.2f%%\n",
		r.Rel()*100, c.Rel()*100, l.Rel()*100)
	fmt.Println("→ inductance is process-insensitive; use nominal L with statistical RC")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
