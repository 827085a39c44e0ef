package paper

import (
	"context"
	"math"

	"clockrlc/internal/cascade"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/units"
	"clockrlc/internal/xtalk"
)

// ShieldRuleRow is one point of experiment E11: the Section IV
// "at least equal width" shielding rule, probed two ways — by the
// crosstalk noise an aggressor injects past the shields, and by the
// linear-cascading error of a routed tree built with that shield
// width.
type ShieldRuleRow struct {
	// WidthRatio is shield width / signal width.
	WidthRatio float64
	// PeakNoise at the quiet victim sink for a 1 V aggressor swing.
	PeakNoise float64
	// CascadeErrPct is the Fig. 6(a)-tree cascading error with this
	// shield width.
	CascadeErrPct float64
}

// ShieldRuleResult is E11's output.
type ShieldRuleResult struct {
	Rows []ShieldRuleRow
	// UnshieldedNoise is the victim noise with the ground wires
	// removed entirely — the baseline the rule protects against.
	UnshieldedNoise float64
}

// xtalkScenario is the shared E11/E12 victim-aggressor setup.
func xtalkScenario() xtalk.Scenario {
	return xtalk.Scenario{
		Victim: core.Segment{
			Length:      units.Um(2000),
			SignalWidth: units.Um(4),
			GroundWidth: units.Um(4),
			Spacing:     units.Um(1),
			Shielding:   geom.ShieldNone,
		},
		AggressorWidth:   units.Um(4),
		AggressorSpacing: units.Um(1),
		Sections:         6,
		RiseTime:         RiseTime,
		DriverRes:        DriverRes,
	}
}

// ShieldRule runs E11 over the given shield-to-signal width ratios.
func ShieldRule(ctx context.Context, e *core.Extractor, ratios []float64) (*ShieldRuleResult, error) {
	base := xtalkScenario()
	pts, err := xtalk.ShieldWidthSweep(ctx, e, base, ratios)
	if err != nil {
		return nil, err
	}
	res := &ShieldRuleResult{}
	for _, p := range pts {
		row := ShieldRuleRow{WidthRatio: p.WidthRatio, PeakNoise: p.PeakNoise}
		cross := cascade.Fig6Cross()
		cross.GroundWidth = p.WidthRatio * cross.SignalWidth
		tree, err := cascade.NewTree("a", fig6aSpecs(), cross, units.RhoCopper)
		if err != nil {
			return nil, err
		}
		full, err := tree.FullLoopLCtx(ctx, Fsig)
		if err != nil {
			return nil, err
		}
		casc, err := tree.CascadedLoopLCtx(ctx, Fsig)
		if err != nil {
			return nil, err
		}
		row.CascadeErrPct = math.Abs(casc-full) / full * 100
		res.Rows = append(res.Rows, row)
	}
	un := base
	un.Unshielded = true
	unRes, err := xtalk.Run(ctx, e, un)
	if err != nil {
		return nil, err
	}
	res.UnshieldedNoise = unRes.PeakNoise
	return res, nil
}

// fig6aSpecs re-states the Fig. 6(a) topology for reuse with modified
// cross sections.
func fig6aSpecs() []cascade.SegmentSpec {
	return []cascade.SegmentSpec{
		{Name: "ab", From: "a", To: "b", Dir: cascade.YPlus, Length: units.Um(100)},
		{Name: "bc", From: "b", To: "c", Dir: cascade.XMinus, Length: units.Um(150)},
		{Name: "ce", From: "c", To: "e", Dir: cascade.YPlus, Length: units.Um(250)},
		{Name: "bd", From: "b", To: "d", Dir: cascade.XPlus, Length: units.Um(250)},
		{Name: "df", From: "d", To: "f", Dir: cascade.YPlus, Length: units.Um(100)},
	}
}
