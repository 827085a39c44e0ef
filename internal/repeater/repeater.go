// Package repeater implements repeater insertion for long RLC
// interconnect — the application the paper's extraction methodology
// feeds (the authors' follow-up, Cao et al., "Effective On-chip
// Inductance Modeling for Multiple Signal Lines and Application on
// Repeater Insertion", studies exactly this). A long line is split
// into n buffered stages; wire delay falls roughly as 1/n (RC) while
// buffer delay grows as n, so the total is U-shaped in n.
//
// The known result this package reproduces: inductance makes wire
// delay more linear in length (time of flight instead of diffusive
// RC), so the RLC-aware optimum uses FEWER repeaters than RC-only
// analysis suggests — an RC flow over-inserts buffers on wide clock
// routes.
package repeater

import (
	"context"
	"errors"
	"fmt"

	"clockrlc/internal/core"
	"clockrlc/internal/netlist"
	"clockrlc/internal/sim"
)

// Buffer is the repeater model (Thevenin driver, input load, its own
// delay).
type Buffer struct {
	DriveRes       float64
	InputCap       float64
	IntrinsicDelay float64
	OutSlew        float64
}

// Validate checks the buffer.
func (b Buffer) Validate() error {
	if b.DriveRes <= 0 || b.InputCap <= 0 || b.OutSlew <= 0 || b.IntrinsicDelay < 0 {
		return fmt.Errorf("repeater: buffer out of range: %+v", b)
	}
	return nil
}

// Spec is a repeater-insertion problem: the total line (Segment.Length
// is the full route) and the repeater to insert.
type Spec struct {
	Line     core.Segment
	Buffer   Buffer
	WithL    bool
	Sections int // ladder sections per stage (default 6)
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if err := s.Line.Validate(); err != nil {
		return err
	}
	return s.Buffer.Validate()
}

// Point is the outcome for one repeater count.
type Point struct {
	N          int     // number of driven stages (n−1 inserted repeaters)
	StageDelay float64 // one stage's wire delay
	Total      float64 // n·(stage + intrinsic)
}

// DelayWithN returns the total source-to-sink delay with the line
// split into n identical buffered stages.
func DelayWithN(ctx context.Context, e *core.Extractor, s Spec, n int) (Point, error) {
	if err := s.Validate(); err != nil {
		return Point{}, err
	}
	if n < 1 {
		return Point{}, fmt.Errorf("repeater: need n >= 1 stages, got %d", n)
	}
	sections := s.Sections
	if sections <= 0 {
		sections = 6
	}
	seg := s.Line
	seg.Length = s.Line.Length / float64(n)
	var rlc netlist.SegmentRLC
	var err error
	if s.WithL {
		rlc, err = e.SegmentRLCCtx(ctx, seg)
	} else {
		rlc, err = e.SegmentRCOnlyCtx(ctx, seg)
	}
	if err != nil {
		return Point{}, err
	}

	nl := netlist.New()
	start := s.Buffer.OutSlew / 10
	nl.AddV("v", "drv", netlist.Ground, netlist.Ramp{V0: 0, V1: 1, Start: start, Rise: s.Buffer.OutSlew})
	nl.AddR("rd", "drv", "in", s.Buffer.DriveRes)
	if _, err := nl.AddLadder("w", "in", "out", rlc, sections); err != nil {
		return Point{}, err
	}
	nl.AddC("cl", "out", netlist.Ground, s.Buffer.InputCap)
	tau := (s.Buffer.DriveRes + rlc.R) * (rlc.C + s.Buffer.InputCap)
	horizon := 12*tau + 6*s.Buffer.OutSlew
	d, err := sim.DelaysFromT0Ctx(ctx, nl, s.Buffer.OutSlew/100, horizon, []string{"out"}, 0, 1)
	if errors.Is(err, sim.ErrNeverCrosses) {
		return Point{}, fmt.Errorf("repeater: n=%d stage never switches: %w", n, err)
	}
	if err != nil {
		return Point{}, fmt.Errorf("repeater: n=%d: %w", n, err)
	}
	stage := d[0] - (start + s.Buffer.OutSlew/2)
	return Point{
		N:          n,
		StageDelay: stage,
		Total:      float64(n) * (stage + s.Buffer.IntrinsicDelay),
	}, nil
}

// Optimize sweeps n = 1..maxN and returns the minimum-total point and
// the whole curve.
func Optimize(ctx context.Context, e *core.Extractor, s Spec, maxN int) (Point, []Point, error) {
	if maxN < 1 {
		return Point{}, nil, fmt.Errorf("repeater: maxN must be >= 1, got %d", maxN)
	}
	var pts []Point
	best := Point{Total: -1}
	for n := 1; n <= maxN; n++ {
		p, err := DelayWithN(ctx, e, s, n)
		if err != nil {
			return Point{}, nil, err
		}
		pts = append(pts, p)
		if best.Total < 0 || p.Total < best.Total {
			best = p
		}
	}
	return best, pts, nil
}
