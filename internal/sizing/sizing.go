// Package sizing implements the optimization side of the paper's
// title application ("applied successfully to the clocktree RLC
// extraction and optimization"): sweeping a clock segment's signal
// width at fixed routing pitch, re-extracting R, L and C through the
// tables at every candidate (the speed of the table method is what
// makes such sweeps practical), simulating the stage, and picking the
// minimum-delay width.
//
// The trade being optimised: at fixed pitch, a wider signal wire
// lowers resistance and loop inductance but raises ground capacitance
// and — because the shield gap closes — lateral capacitance. With a
// driver of comparable impedance the delay curve is U-shaped and an
// interior optimum exists.
package sizing

import (
	"context"
	"fmt"
	"math"

	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/netlist"
	"clockrlc/internal/sim"
)

// Spec fixes everything about the stage except the signal width.
type Spec struct {
	// Length of the segment.
	Length float64
	// Pitch is the centre-to-centre distance between the signal and
	// each shield; widening the signal closes the gap.
	Pitch float64
	// GroundWidth of the shields.
	GroundWidth float64
	// Shielding configuration.
	Shielding geom.Shielding
	// DriveRes, LoadCap, RiseTime describe the stage's driver and sink.
	DriveRes, LoadCap, RiseTime float64
	// Sections per ladder (default 8).
	Sections int
	// WithL selects RLC (true) or RC-only sizing.
	WithL bool
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Length <= 0 || s.Pitch <= 0 || s.GroundWidth <= 0 ||
		s.DriveRes <= 0 || s.LoadCap <= 0 || s.RiseTime <= 0 {
		return fmt.Errorf("sizing: spec fields must be positive: %+v", s)
	}
	return nil
}

// Point is one candidate width's outcome.
type Point struct {
	Width float64
	// Spacing is the resulting edge-to-edge gap.
	Spacing float64
	// RLC are the extracted segment totals.
	RLC netlist.SegmentRLC
	// Delay is the simulated 50 % sink arrival from the source edge
	// midpoint.
	Delay float64
}

// segment builds the core.Segment for a candidate width.
func (s Spec) segment(w float64) (core.Segment, error) {
	spacing := s.Pitch - w/2 - s.GroundWidth/2
	if spacing <= 0 {
		return core.Segment{}, fmt.Errorf("sizing: width %g leaves no gap at pitch %g", w, s.Pitch)
	}
	return core.Segment{
		Length:      s.Length,
		SignalWidth: w,
		GroundWidth: s.GroundWidth,
		Spacing:     spacing,
		Shielding:   s.Shielding,
	}, nil
}

// SweepWidthCtx evaluates every candidate width, honouring
// cancellation between candidates (each candidate is one extraction
// plus one transient simulation, so a cancel lands within one
// candidate's work).
func SweepWidthCtx(ctx context.Context, e *core.Extractor, s Spec, widths []float64) ([]Point, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(widths) == 0 {
		return nil, fmt.Errorf("sizing: no candidate widths")
	}
	sections := s.Sections
	if sections <= 0 {
		sections = 8
	}
	var out []Point
	for _, w := range widths {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if w <= 0 {
			return nil, fmt.Errorf("sizing: width %g must be positive", w)
		}
		seg, err := s.segment(w)
		if err != nil {
			return nil, err
		}
		var rlc netlist.SegmentRLC
		if s.WithL {
			rlc, err = e.SegmentRLCCtx(ctx, seg)
		} else {
			rlc, err = e.SegmentRCOnlyCtx(ctx, seg)
		}
		if err != nil {
			return nil, fmt.Errorf("sizing: width %g: %w", w, err)
		}
		d, err := stageDelay(ctx, rlc, s, sections)
		if err != nil {
			return nil, fmt.Errorf("sizing: width %g: %w", w, err)
		}
		out = append(out, Point{Width: w, Spacing: seg.Spacing, RLC: rlc, Delay: d})
	}
	return out, nil
}

// OptimizeCtx runs SweepWidthCtx and returns the minimum-delay point.
func OptimizeCtx(ctx context.Context, e *core.Extractor, s Spec, widths []float64) (Point, []Point, error) {
	pts, err := SweepWidthCtx(ctx, e, s, widths)
	if err != nil {
		return Point{}, nil, err
	}
	best := pts[0]
	for _, p := range pts[1:] {
		if p.Delay < best.Delay {
			best = p
		}
	}
	return best, pts, nil
}

// stageDelay simulates one driver + ladder + load stage.
func stageDelay(ctx context.Context, rlc netlist.SegmentRLC, s Spec, sections int) (float64, error) {
	nl := netlist.New()
	start := s.RiseTime / 10
	nl.AddV("v", "drv", netlist.Ground, netlist.Ramp{V0: 0, V1: 1, Start: start, Rise: s.RiseTime})
	nl.AddR("rd", "drv", "in", s.DriveRes)
	if _, err := nl.AddLadder("w", "in", "out", rlc, sections); err != nil {
		return 0, err
	}
	nl.AddC("cl", "out", netlist.Ground, s.LoadCap)
	// The horizon must cover slow RC corners of the sweep.
	tau := (s.DriveRes + rlc.R) * (rlc.C + s.LoadCap)
	horizon := 10*tau + 4*s.RiseTime + 20*math.Sqrt(rlc.L*(rlc.C+s.LoadCap))
	d, err := sim.DelaysFromT0Ctx(ctx, nl, s.RiseTime/100, horizon, []string{"out"}, 0, 1)
	if err != nil {
		return 0, err
	}
	return d[0] - (start + s.RiseTime/2), nil
}
