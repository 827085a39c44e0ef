// cascade demonstrates Section IV of the paper: the loop inductance of
// a routed tree of shielded segments equals the series/parallel
// combination of per-segment loop inductances. It rebuilds the two
// Fig. 6 trees, runs the whole-tree extraction and the cascaded
// combination, and then does the same for a custom tree to show the
// API.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"clockrlc"
)

func main() {
	ctx := context.Background()
	const fsig = 6.4e9

	fmt.Println("Table I reproduction — linear cascading comparisons")
	for _, b := range []struct {
		name  string
		build func(rho float64) (*clockrlc.CascadeTree, error)
		paper float64
	}{
		{"Fig. 6(a)", clockrlc.Fig6a, 3.57},
		{"Fig. 6(b)", clockrlc.Fig6b, 1.55},
	} {
		tree, err := b.build(clockrlc.RhoCopper)
		if err != nil {
			log.Fatal(err)
		}
		report(ctx, b.name, tree, fsig, b.paper)
	}

	// A custom tree: 3-way branch with unequal arms, 2 µm wires.
	specs := []clockrlc.CascadeSegment{
		{Name: "trunk", From: "src", To: "hub", Dir: clockrlc.YPlus, Length: clockrlc.Um(400)},
		{Name: "a1", From: "hub", To: "s1", Dir: clockrlc.XMinus, Length: clockrlc.Um(300)},
		{Name: "a2", From: "hub", To: "s2", Dir: clockrlc.YPlus, Length: clockrlc.Um(500)},
		{Name: "a3", From: "hub", To: "s3", Dir: clockrlc.XPlus, Length: clockrlc.Um(200)},
	}
	cross := clockrlc.CascadeCross{
		SignalWidth: clockrlc.Um(2),
		GroundWidth: clockrlc.Um(2),
		Spacing:     clockrlc.Um(1),
		Thickness:   clockrlc.Um(1),
	}
	tree, err := clockrlc.NewCascadeTree("src", specs, cross, clockrlc.RhoCopper)
	if err != nil {
		log.Fatal(err)
	}
	report(ctx, "custom 3-way", tree, fsig, math.NaN())

	// Show per-segment contributions of the custom tree.
	fmt.Println("\nper-segment loop inductances of the custom tree:")
	for i, s := range tree.Specs {
		l, err := tree.SegmentLoopL(i, fsig)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s %4.0f µm  %.4f nH\n", s.Name, s.Length/1e-6, clockrlc.ToNH(l))
	}
}

func report(ctx context.Context, name string, tree *clockrlc.CascadeTree, fsig, paperErr float64) {
	full, err := tree.FullLoopLCtx(ctx, fsig)
	if err != nil {
		log.Fatal(err)
	}
	casc, err := tree.CascadedLoopLCtx(ctx, fsig)
	if err != nil {
		log.Fatal(err)
	}
	errPct := math.Abs(casc-full) / full * 100
	line := fmt.Sprintf("%-12s full %.4f nH, cascaded %.4f nH, error %.2f%%",
		name, clockrlc.ToNH(full), clockrlc.ToNH(casc), errPct)
	if !math.IsNaN(paperErr) {
		line += fmt.Sprintf(" (paper %.2f%%)", paperErr)
	}
	fmt.Println(line)
}
