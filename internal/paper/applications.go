package paper

import (
	"context"

	"clockrlc/internal/bus"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/repeater"
	"clockrlc/internal/units"
)

// RepeaterResult is experiment E12: repeater insertion on a long
// shielded line, optimised with and without inductance.
type RepeaterResult struct {
	RC, RLC      repeater.Point
	CurveRC      []repeater.Point
	CurveRLC     []repeater.Point
	RCPenaltyPct float64 // extra delay if the RC-chosen count runs on the real (RLC) line
}

// RepeaterInsertion runs E12: a 16 mm, 2 µm-wide shielded route with
// 60 Ω repeaters.
func RepeaterInsertion(ctx context.Context, e *core.Extractor) (*RepeaterResult, error) {
	mk := func(withL bool) repeater.Spec {
		return repeater.Spec{
			Line: core.Segment{
				Length:      units.Um(16000),
				SignalWidth: units.Um(2),
				GroundWidth: units.Um(2),
				Spacing:     units.Um(1),
				Shielding:   geom.ShieldNone,
			},
			Buffer: repeater.Buffer{
				DriveRes:       30,
				InputCap:       40e-15,
				IntrinsicDelay: 8e-12,
				OutSlew:        RiseTime,
			},
			WithL:    withL,
			Sections: 6,
		}
	}
	res := &RepeaterResult{}
	var err error
	if res.RC, res.CurveRC, err = repeater.Optimize(ctx, e, mk(false), 8); err != nil {
		return nil, err
	}
	if res.RLC, res.CurveRLC, err = repeater.Optimize(ctx, e, mk(true), 8); err != nil {
		return nil, err
	}
	// What the RC-chosen repeater count costs on the real line.
	atRCCount, err := repeater.DelayWithN(ctx, e, mk(true), res.RC.N)
	if err != nil {
		return nil, err
	}
	res.RCPenaltyPct = (atRCCount.Total - res.RLC.Total) / res.RLC.Total * 100
	return res, nil
}

// BusNoiseResult is experiment E13: switching noise across a shielded
// bus.
type BusNoiseResult struct {
	// PeakAdjacent is the noise one adjacent aggressor injects.
	PeakAdjacent float64
	// PeakStorm is the middle victim's noise with all other bits
	// switching.
	PeakStorm float64
}

// BusNoise runs E13 on a 5-bit bus with outer shields.
func BusNoise(ctx context.Context, e *core.Extractor) (*BusNoiseResult, error) {
	spec := bus.Spec{
		N:           5,
		Length:      units.Um(2000),
		SignalWidth: units.Um(2),
		GroundWidth: units.Um(2),
		Spacing:     units.Um(1),
		Sections:    5,
		RiseTime:    RiseTime,
		DriverRes:   DriverRes,
	}
	adj, err := bus.Noise(ctx, e, spec, []int{1}, 2)
	if err != nil {
		return nil, err
	}
	storm, err := bus.Noise(ctx, e, spec, []int{0, 1, 3, 4}, 2)
	if err != nil {
		return nil, err
	}
	return &BusNoiseResult{
		PeakAdjacent: adj.Peak[2],
		PeakStorm:    storm.Peak[2],
	}, nil
}
