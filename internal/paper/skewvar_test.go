package paper

import (
	"context"
	"testing"
)

// E14: the paper's proposal — nominal L + statistical RC — tracks the
// fully varied skew sample by sample.
func TestSkewVariationNominalLProposal(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo tree simulation in -short mode")
	}
	res, err := SkewVariation(context.Background(), extractor(t), 6, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullMean <= 0 || res.NomLMean <= 0 {
		t.Fatalf("degenerate skew means: %+v", res)
	}
	// Per-sample agreement within a few per cent validates dropping
	// the L variation.
	if res.MaxPairErrPct > 10 {
		t.Errorf("nominal-L skew deviates by up to %.1f%% from the full variation", res.MaxPairErrPct)
	}
	// Distribution-level agreement too.
	if rel := abs(res.FullMean-res.NomLMean) / res.FullMean; rel > 0.05 {
		t.Errorf("mean skew differs by %.1f%%: full %g vs nominal-L %g",
			rel*100, res.FullMean, res.NomLMean)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
