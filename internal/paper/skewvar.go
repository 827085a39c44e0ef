package paper

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"clockrlc/internal/clocktree"
	"clockrlc/internal/core"
	"clockrlc/internal/statrc"
	"clockrlc/internal/units"
)

// SkewVariationResult is experiment E14: Monte-Carlo clock skew under
// process variation, computed the exact way (R, C and L all re-
// extracted per sample) and the paper's proposed way ("combine the
// nominal inductance with the statistically generated RC").
type SkewVariationResult struct {
	Samples int
	// FullMean/FullSigma: skew statistics with per-stage R, C and L
	// variation.
	FullMean, FullSigma float64
	// NomLMean/NomLSigma: skew statistics with nominal L.
	NomLMean, NomLSigma float64
	// MaxPairErrPct is the largest per-sample relative difference
	// between the two skews — the direct cost of the paper's
	// simplification.
	MaxPairErrPct float64
}

// SkewVariation runs E14 on a 2-level H-tree (5 buffered stages).
// Per sample, every stage draws its own process corner; skew is then
// computed with and without the L component of the variation.
func SkewVariation(ctx context.Context, e *core.Extractor, samples int, seed int64) (*SkewVariationResult, error) {
	if samples < 2 {
		return nil, fmt.Errorf("paper: need at least 2 samples, got %d", samples)
	}
	seg := Fig1Segment()
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
	v := statrc.Variation{EdgeBiasSigma: 0.03e-6, ThicknessSigma: 0.06, HeightSigma: 0.05}
	nom, err := e.SegmentRLCCtx(ctx, seg)
	if err != nil {
		return nil, err
	}

	const nStages = 5 // 1 root + 4 leaf stages of a 2-level tree
	rng := rand.New(rand.NewSource(seed))
	res := &SkewVariationResult{Samples: samples}
	var fullSkews, nomSkews []float64
	for s := 0; s < samples; s++ {
		full := map[int][3]float64{}
		noml := map[int][3]float64{}
		for st := 0; st < nStages; st++ {
			sample := v.Draw(rng)
			p, err := statrc.PerturbedRLC(ctx, e, seg, sample)
			if err != nil {
				return nil, err
			}
			r := p.R / nom.R
			c := p.C / nom.C
			l := p.L / nom.L
			full[st] = [3]float64{r, c, l}
			noml[st] = [3]float64{r, c, 1}
		}
		fr, err := tree.SkewReportCtx(ctx, clocktree.SimOptions{WithL: true, Sections: 4, Scale: full})
		if err != nil {
			return nil, err
		}
		nr, err := tree.SkewReportCtx(ctx, clocktree.SimOptions{WithL: true, Sections: 4, Scale: noml})
		if err != nil {
			return nil, err
		}
		fs, ns := fr.Skew, nr.Skew
		fullSkews = append(fullSkews, fs)
		nomSkews = append(nomSkews, ns)
		if fs > 0 {
			if d := math.Abs(fs-ns) / fs * 100; d > res.MaxPairErrPct {
				res.MaxPairErrPct = d
			}
		}
	}
	res.FullMean, res.FullSigma = meanSigma(fullSkews)
	res.NomLMean, res.NomLSigma = meanSigma(nomSkews)
	return res, nil
}

func meanSigma(xs []float64) (mean, sigma float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		sigma += d * d
	}
	sigma = math.Sqrt(sigma / float64(len(xs)-1))
	return mean, sigma
}
