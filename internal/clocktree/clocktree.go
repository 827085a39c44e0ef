// Package clocktree implements Section V of the paper: RLC extraction
// and skew simulation of a buffered H-tree clock distribution network
// (Fig. 7), with each wire segment realised as a shielded building
// block — coplanar waveguide (Fig. 8) or microstrip (Fig. 9) — and the
// passive portion between buffer levels formulated as cascaded
// RLC-segment ladders using the table-based loop inductances.
//
// The clock buffers follow the paper's driver model: a Thevenin source
// (series resistance, the "about 40 ohm" of Fig. 1) launching a ramp,
// plus an input capacitance loading the upstream stage and an
// intrinsic delay. Stages are linear, so the tree is simulated stage
// by stage and arrivals accumulate along root-to-leaf paths.
package clocktree

import (
	"context"
	"errors"
	"fmt"
	"math"

	"clockrlc/internal/core"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
	"clockrlc/internal/sim"
)

// H-tree simulation accounting: stages are the unit of transient work
// (one MNA run each), leaves the unit of skew statistics.
var (
	treeStages = obs.GetCounter("clocktree.stages")
	treeLeaves = obs.GetCounter("clocktree.leaves")
)

// ErrNoLevels is returned by NewTree for a tree without levels.
var ErrNoLevels = errors.New("clocktree: need at least one level")

// maxLevels bounds a tree's depth: the walk indexes 4^levels leaves in
// an int64.
const maxLevels = 30

// Buffer is the clock buffer model.
type Buffer struct {
	// DriveRes is the Thevenin output resistance in Ω.
	DriveRes float64
	// InputCap is the capacitance a buffer input presents, in F.
	InputCap float64
	// IntrinsicDelay is added per buffer stage, in s.
	IntrinsicDelay float64
	// OutSlew is the output ramp's 0–100 % rise time, in s.
	OutSlew float64
}

// Validate checks the buffer model, naming the offending field: every
// field must be finite, IntrinsicDelay non-negative and the others
// positive.
func (b Buffer) Validate() error {
	for _, f := range []struct {
		name   string
		v      float64
		zeroOK bool
	}{
		{"DriveRes", b.DriveRes, false},
		{"InputCap", b.InputCap, false},
		{"IntrinsicDelay", b.IntrinsicDelay, true},
		{"OutSlew", b.OutSlew, false},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 || (f.v == 0 && !f.zeroOK) {
			return fmt.Errorf("clocktree: buffer %s = %g out of range", f.name, f.v)
		}
	}
	return nil
}

// Level describes the wire geometry of one buffer level's H: the
// trunk runs from the driving buffer sideways to the two split points,
// the arms from each split point to the four receiving buffers.
type Level struct {
	TrunkLen, ArmLen float64
	Segment          core.Segment // Length is ignored; widths/spacing/shielding used
}

// Tree is a buffered H-tree clock network.
type Tree struct {
	Levels []Level
	Buffer Buffer
	Ext    *core.Extractor
}

// NewTree assembles and validates a tree.
func NewTree(levels []Level, buf Buffer, ext *core.Extractor) (*Tree, error) {
	if len(levels) == 0 {
		return nil, ErrNoLevels
	}
	if len(levels) > maxLevels {
		return nil, fmt.Errorf("clocktree: %d levels overflows leaf indexing (max %d)", len(levels), maxLevels)
	}
	if err := buf.Validate(); err != nil {
		return nil, err
	}
	if ext == nil {
		return nil, errors.New("clocktree: nil extractor")
	}
	for i, l := range levels {
		for _, length := range []float64{l.TrunkLen, l.ArmLen} {
			s := l.Segment
			s.Length = length
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("clocktree: level %d: %w", i, err)
			}
		}
	}
	return &Tree{Levels: levels, Buffer: buf, Ext: ext}, nil
}

// HTreeLevels builds a classic H-tree level stack for a die of the
// given half-span: level ℓ's trunk reaches halfSpan/2^ℓ and its arms
// half of that, halving each level. All levels share the segment
// profile (widths typically taper in real designs; callers can edit
// the returned slice). A non-positive nLevels yields no levels, and a
// count above maxLevels yields maxLevels+1 levels rather than a huge
// allocation; NewTree rejects both.
func HTreeLevels(halfSpan float64, nLevels int, seg core.Segment) []Level {
	levels := make([]Level, min(max(nLevels, 0), maxLevels+1))
	span := halfSpan
	for i := range levels {
		levels[i] = Level{TrunkLen: span, ArmLen: span / 2, Segment: seg}
		span /= 2
	}
	return levels
}

// SimOptions controls a tree simulation.
type SimOptions struct {
	// WithL selects the RLC netlist; false extracts RC only (the
	// paper's comparison baseline).
	WithL bool
	// Sections per segment ladder (default 6).
	Sections int
	// TimeStep and Horizon for each stage transient (defaults
	// OutSlew/100 and 40·OutSlew).
	TimeStep, Horizon float64
	// Scale optionally perturbs a stage instance's extracted R, C and
	// L by the given multipliers (process variation). The paper's
	// proposal keeps L at 1 while R and C vary; setting the third
	// entry exercises the full variation for comparison. Indexed by
	// stage instance id as produced by ArrivalsCtx; nil means nominal
	// everywhere.
	Scale map[int][3]float64
	// LeafLoadScale optionally scales the load capacitance of
	// individual leaves to model sink load imbalance. Keys are leaf
	// indices in H-order — the order ArrivalsCtx returns them: leaf
	// stages left to right across the last level, four sinks per
	// stage, so leaves 4k..4k+3 hang off the k-th leaf stage. Absent
	// keys mean nominal (×1) load.
	LeafLoadScale map[int]float64
	// NoStageDedup forces the legacy exact walk: every stage instance
	// runs its own transient even when an identical instance (same
	// level, scale and sink loads) has already been simulated. The
	// default memoized walk is bit-identical — identical inputs yield
	// identical transients — so this exists for pinning tests and
	// paranoia runs, at O(4^levels) instead of O(distinct stages)
	// transient cost.
	NoStageDedup bool
	// SampleCap bounds the reservoir of raw arrival samples AnalyzeCtx
	// keeps alongside the running statistics (0 = none). The reservoir
	// is deterministic: the same tree and options select the same
	// sample at any checkpoint/resume schedule.
	SampleCap int
}

func (o SimOptions) withDefaults(buf Buffer) SimOptions {
	if o.Sections <= 0 {
		o.Sections = 6
	}
	if o.TimeStep <= 0 {
		o.TimeStep = buf.OutSlew / 100
	}
	if o.Horizon <= 0 {
		o.Horizon = 40 * buf.OutSlew
	}
	return o
}

// nominalScale and nominalLoads are the multipliers an unperturbed
// stage carries. Multiplying by exactly 1.0 is a bitwise no-op, so a
// stage with these multipliers simulates bit-identically to the
// pre-memoization code path that skipped the multiply entirely.
var (
	nominalScale = [3]float64{1, 1, 1}
	nominalLoads = [4]float64{1, 1, 1, 1}
)

// simulateStage runs one buffer stage's transient: the driver at the
// H centre, two trunk ladders, four arm ladders, four sink loads. It
// returns the four sink 50 % arrival times measured from the stage's
// launch. scale multiplies the extracted R/C/L of every wire in the
// stage; loads multiplies the four sink capacitances (1s for an
// internal stage, whose sinks are the next level's buffer inputs).
func (t *Tree) simulateStage(ctx context.Context, levelIdx int, stageID int64, opts SimOptions, scale [3]float64, loads [4]float64) ([4]float64, error) {
	var delays [4]float64
	ctx, sp := obs.StartCtx(ctx, "clocktree.stage")
	defer sp.End()
	sp.SetAttr("level", levelIdx)
	sp.SetAttr("stage", stageID)
	treeStages.Inc()
	lv := t.Levels[levelIdx]
	// One driver resistor, six ladders and four sink capacitors. Sizing
	// the element lists up front saves the garbage of growing them one
	// element at a time, which was ~40 % of a stage's allocated bytes.
	n := opts.Sections
	nl := &netlist.Netlist{
		Resistors:  make([]netlist.Resistor, 0, 1+6*n),
		Capacitors: make([]netlist.Capacitor, 0, 6*(n+1)+4),
		Inductors:  make([]netlist.Inductor, 0, 6*n),
	}
	nl.AddV("vsrc", "drv", netlist.Ground, netlist.Ramp{V0: 0, V1: 1, Start: opts.TimeStep, Rise: t.Buffer.OutSlew})
	nl.AddR("rdrv", "drv", "r", t.Buffer.DriveRes)

	extract := func(length float64) (netlist.SegmentRLC, error) {
		s := lv.Segment
		s.Length = length
		var rlc netlist.SegmentRLC
		var err error
		if opts.WithL {
			rlc, err = t.Ext.SegmentRLCCtx(ctx, s)
		} else {
			rlc, err = t.Ext.SegmentRCOnlyCtx(ctx, s)
		}
		if err != nil {
			return rlc, err
		}
		rlc.R *= scale[0]
		rlc.C *= scale[1]
		rlc.L *= scale[2]
		return rlc, nil
	}
	trunk, err := extract(lv.TrunkLen)
	if err != nil {
		return delays, err
	}
	arm, err := extract(lv.ArmLen)
	if err != nil {
		return delays, err
	}
	if _, err := nl.AddLadder("tl", "r", "L", trunk, opts.Sections); err != nil {
		return delays, err
	}
	if _, err := nl.AddLadder("tr", "r", "R", trunk, opts.Sections); err != nil {
		return delays, err
	}
	sinks := []string{"s0", "s1", "s2", "s3"}
	splits := []string{"L", "L", "R", "R"}
	for i, s := range sinks {
		if _, err := nl.AddLadder("a"+s, splits[i], s, arm, opts.Sections); err != nil {
			return delays, err
		}
		nl.AddC("c"+s, s, netlist.Ground, t.Buffer.InputCap*loads[i])
	}
	ds, err := sim.DelaysFromT0Ctx(ctx, nl, opts.TimeStep, opts.Horizon, sinks, 0, 1)
	if errors.Is(err, sim.ErrNeverCrosses) {
		return delays, fmt.Errorf("clocktree: stage %d never switches (horizon too short?): %w", stageID, err)
	}
	if err != nil {
		return delays, fmt.Errorf("clocktree: stage %d (level %d): %w", stageID, levelIdx, err)
	}
	for i, d := range ds {
		// Remove the launch offset (the source starts one time step in).
		delays[i] = d - opts.TimeStep
	}
	return delays, nil
}

// ArrivalsCtx simulates the full tree and returns the clock arrival time
// at every leaf (4^levels leaves, indexed in H-order), including
// buffer intrinsic delays. Stage instance ids are assigned in
// level-order (BFS) starting at 0 for the root stage — stage k's
// children are 4k+1..4k+4 — and are stable for use with
// SimOptions.Scale. For trees too deep to materialise 4^levels
// float64s, use AnalyzeCtx, which streams the same walk into bounded
// statistics.
//
// It honours cancellation (each stage's transient polls ctx, and the
// walk itself polls between stages) with context-parented tracing:
// every clocktree.stage span — and the extraction and transient spans
// inside it — parents under the arrivals span. Identical stage
// instances share one simulated transient (see AnalyzeCtx); results
// are bit-identical to the exact per-instance walk.
func (t *Tree) ArrivalsCtx(ctx context.Context, opts SimOptions) ([]float64, error) {
	_, arrivals, err := t.analyzeStream(ctx, opts, nil, true)
	return arrivals, err
}

// AnalyzeCtx simulates the full tree as a streaming walk and returns
// bounded arrival statistics instead of the 4^levels arrivals slice:
// min/max (with leaf indices), sum/sum-of-squares, a fixed-size log
// histogram and an optional bounded sample reservoir. Identical stage
// instances — same level, scale perturbation and sink loads — are
// simulated once and memoized, so a nominal H-tree costs O(levels)
// transients instead of O(4^levels): the million-sink tree ROADMAP
// item 1 asks for is ~10 transients plus arithmetic.
//
// It honours cancellation and, when ck is non-nil, durably
// checkpoints the walk so a crash, OOM kill or SIGKILL resumes
// instead of restarting — see Checkpoint.
func (t *Tree) AnalyzeCtx(ctx context.Context, opts SimOptions, ck *Checkpoint) (*ArrivalStats, error) {
	stats, _, err := t.analyzeStream(ctx, opts, ck, false)
	return stats, err
}

// SkewReport names the leaves that set a tree's skew, so a
// large-tree run can point at the offending sink paths instead of
// reporting a bare number.
type SkewReport struct {
	// Skew is max − min arrival.
	Skew float64
	// MinArrival/MaxArrival are the extreme arrival times in seconds.
	MinArrival, MaxArrival float64
	// MinLeaf/MaxLeaf are the H-order indices of the earliest and
	// latest leaves (first occurrence on ties, matching sim.Skew).
	MinLeaf, MaxLeaf int64
	// Leaves is the leaf count the report covers.
	Leaves int64
}

// SkewReportCtx runs the tree (streaming; no full arrivals slice) and
// returns the skew (max − min arrival) together with the extreme
// arrivals and the leaf indices that set them.
func (t *Tree) SkewReportCtx(ctx context.Context, opts SimOptions) (SkewReport, error) {
	stats, err := t.AnalyzeCtx(ctx, opts, nil)
	if err != nil {
		return SkewReport{}, err
	}
	return stats.SkewReport(), nil
}
