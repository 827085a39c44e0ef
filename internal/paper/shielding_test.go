package paper

import (
	"context"
	"testing"
)

// E11: the "at least equal width" rule — wider shields monotonically
// reduce both the coupled noise and the cascading error, and removing
// them entirely is much worse.
func TestShieldRule(t *testing.T) {
	res, err := ShieldRule(context.Background(), extractor(t), []float64{0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].PeakNoise >= res.Rows[i-1].PeakNoise {
			t.Errorf("noise not decreasing: ratio %g → %g V, ratio %g → %g V",
				res.Rows[i-1].WidthRatio, res.Rows[i-1].PeakNoise,
				res.Rows[i].WidthRatio, res.Rows[i].PeakNoise)
		}
	}
	equal := res.Rows[1]
	if !(res.UnshieldedNoise > 3*equal.PeakNoise) {
		t.Errorf("unshielded noise %g not ≫ equal-width shielded %g",
			res.UnshieldedNoise, equal.PeakNoise)
	}
	for _, r := range res.Rows {
		if r.CascadeErrPct < 0 || r.CascadeErrPct > 10 {
			t.Errorf("ratio %g: cascading error %.2f%% out of range", r.WidthRatio, r.CascadeErrPct)
		}
	}
	// At-least-equal-width shields keep cascading valid to ~1 %.
	if equal.CascadeErrPct > 1 {
		t.Errorf("equal-width cascading error %.2f%%, want ≤ 1%%", equal.CascadeErrPct)
	}
}
