// Package statrc stands in for the paper's reference [4] ("Fast
// Generation of Statistically-based Worst-Case Modeling of On-Chip
// Interconnect"): a process-variation model that perturbs interconnect
// geometry (line width, metal thickness, dielectric height), from
// which statistically varied R and C — and, for the paper's key
// observation, nearly invariant L — are generated.
//
// Section V uses this to argue that the nominal inductance can be
// combined with statistically generated RC when studying process
// impact on clock skew.
package statrc

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"clockrlc/internal/capmodel"
	"clockrlc/internal/core"
	"clockrlc/internal/netlist"
	"clockrlc/internal/resist"
)

// Variation holds the 1σ process variations. Edge bias is absolute —
// etch and lithography move metal edges by a distance that does not
// scale with the drawn width — while thickness (CMP) and dielectric
// height vary relative to their nominal values.
type Variation struct {
	// EdgeBiasSigma is the absolute 1σ displacement of each metal
	// edge, in metres (a line's width shifts by 2× this; the gap to a
	// neighbour shrinks by 2× this when both edges move outward).
	EdgeBiasSigma float64
	// ThicknessSigma is the relative 1σ of metal thickness (CMP).
	ThicknessSigma float64
	// HeightSigma is the relative 1σ of the inter-layer dielectric
	// height.
	HeightSigma float64
}

// Validate rejects negative or implausibly large sigmas.
func (v Variation) Validate() error {
	if v.EdgeBiasSigma < 0 || v.EdgeBiasSigma > 0.5e-6 {
		return fmt.Errorf("statrc: edge-bias sigma %g outside [0, 0.5 µm]", v.EdgeBiasSigma)
	}
	for _, s := range []float64{v.ThicknessSigma, v.HeightSigma} {
		if s < 0 || s > 0.3 {
			return fmt.Errorf("statrc: relative sigma %g outside [0, 0.3]", s)
		}
	}
	return nil
}

// Sample is one drawn process corner: an absolute edge bias (metres,
// positive widens lines and narrows gaps) plus multiplicative scales
// for thickness and dielectric height. Draw clamps to ±3σ.
type Sample struct {
	EdgeBias          float64
	Thickness, Height float64
}

// Draw samples a Gaussian process corner using the provided source.
func (v Variation) Draw(rng *rand.Rand) Sample {
	gauss := func() float64 {
		g := rng.NormFloat64()
		if g > 3 {
			g = 3
		}
		if g < -3 {
			g = -3
		}
		return g
	}
	return Sample{
		EdgeBias:  gauss() * v.EdgeBiasSigma,
		Thickness: 1 + gauss()*v.ThicknessSigma,
		Height:    1 + gauss()*v.HeightSigma,
	}
}

// Corner returns the deterministic k-sigma high-resistance corner:
// edges pulled in (narrower lines) and thinner metal. Dielectric
// height also shrinks, which raises area capacitance. (R and C do not
// share a single worst corner; this is the resistance-dominated one.)
func (v Variation) Corner(k float64) Sample {
	return Sample{
		EdgeBias:  -k * v.EdgeBiasSigma,
		Thickness: 1 - k*v.ThicknessSigma,
		Height:    1 - k*v.HeightSigma,
	}
}

// PerturbedRLC extracts a segment's R, C and L under the sample's
// geometry: R analytically from the scaled cross section, C from the
// capacitance models with scaled geometry, and L re-composed from the
// extractor's tables with the scaled widths. The point of the
// experiment: R and C shift by O(σ) while L barely moves.
func PerturbedRLC(ctx context.Context, e *core.Extractor, seg core.Segment, s Sample) (netlist.SegmentRLC, error) {
	if s.Thickness <= 0 || s.Height <= 0 {
		return netlist.SegmentRLC{}, fmt.Errorf("statrc: degenerate sample %+v", s)
	}
	p := seg
	p.SignalWidth += 2 * s.EdgeBias
	p.GroundWidth += 2 * s.EdgeBias
	p.Spacing -= 2 * s.EdgeBias
	if p.SignalWidth <= 0 || p.GroundWidth <= 0 {
		return netlist.SegmentRLC{}, fmt.Errorf("statrc: sample erases a wire (bias %g)", s.EdgeBias)
	}
	if p.Spacing <= 0 {
		return netlist.SegmentRLC{}, fmt.Errorf("statrc: sample closes the wire gap (spacing %g)", p.Spacing)
	}

	r, err := resist.ACSkinArea(p.Length, p.SignalWidth, e.Tech.Thickness*s.Thickness, e.Tech.Rho, e.Frequency)
	if err != nil {
		return netlist.SegmentRLC{}, err
	}
	blk, err := e.Block(p)
	if err != nil {
		return netlist.SegmentRLC{}, err
	}
	for i := range blk.Traces {
		blk.Traces[i].Thickness *= s.Thickness
	}
	caps, err := capmodel.BlockCaps(blk, e.Tech.CapHeight*s.Height, e.Tech.EpsRel)
	if err != nil {
		return netlist.SegmentRLC{}, err
	}
	c := caps[1].Total() * p.Length

	l, err := e.LoopLCtx(ctx, p)
	if err != nil {
		return netlist.SegmentRLC{}, err
	}
	return netlist.SegmentRLC{R: r, L: l, C: c}, nil
}

// Spread summarises a Monte-Carlo population.
type Spread struct {
	Mean, Sigma float64
}

// Rel returns σ/µ.
func (s Spread) Rel() float64 {
	if s.Mean == 0 {
		return math.Inf(1)
	}
	return s.Sigma / math.Abs(s.Mean)
}

// MonteCarlo draws n samples and returns the spreads of R, C and L for
// the segment. A deterministic seed makes experiments reproducible.
func MonteCarlo(ctx context.Context, e *core.Extractor, seg core.Segment, v Variation, n int, seed int64) (r, c, l Spread, err error) {
	if err = v.Validate(); err != nil {
		return
	}
	if n < 2 {
		err = fmt.Errorf("statrc: need at least 2 samples, got %d", n)
		return
	}
	rng := rand.New(rand.NewSource(seed))
	rs := make([]float64, 0, n)
	cs := make([]float64, 0, n)
	ls := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		rlc, e2 := PerturbedRLC(ctx, e, seg, v.Draw(rng))
		if e2 != nil {
			err = e2
			return
		}
		rs = append(rs, rlc.R)
		cs = append(cs, rlc.C)
		ls = append(ls, rlc.L)
	}
	return spread(rs), spread(cs), spread(ls), nil
}

func spread(xs []float64) Spread {
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var vv float64
	for _, x := range xs {
		d := x - mean
		vv += d * d
	}
	vv /= float64(len(xs) - 1)
	return Spread{Mean: mean, Sigma: math.Sqrt(vv)}
}
