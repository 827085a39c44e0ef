// Package core implements the paper's extraction methodology: given a
// clocktree segment's geometry and shielding configuration, produce
// its R, L and C by
//
//   - analytic resistance at the significant frequency (Section V:
//     "resistance is calculated analytically"),
//   - capacitance from the pre-characterised 3-trace models with the
//     grounded-coupling assumption (Section VI),
//   - inductance by composing the pre-computed self/mutual tables of
//     Section III into the segment's loop inductance,
//
// and formulate RLC netlists for blocks of N parallel wires — either
// the loop formulation (grounds folded into the return, one inductor
// per section) or the partial formulation (every trace an inductor
// ladder with mutual K couplings, letting the simulator determine the
// return path, per Section II).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"clockrlc/internal/capmodel"
	"clockrlc/internal/check"
	"clockrlc/internal/geom"
	"clockrlc/internal/loop"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
	"clockrlc/internal/peec"
	"clockrlc/internal/resist"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// Extraction accounting: segments extracted and loop compositions
// performed (each loop composition is four table lookups).
var (
	segmentsExtracted = obs.GetCounter("core.segments_extracted")
	loopCompositions  = obs.GetCounter("core.loop_compositions")
	directSolves      = obs.GetCounter("core.direct_solves")
)

// ErrBadGeometry marks input-validation failures of segment and
// technology geometry: negative, zero or non-finite dimensions are
// rejected at the gate with the offending field named, before any of
// them can reach the field solver and surface later as a cryptic
// numerical failure (or worse, a silently wrong table entry).
var ErrBadGeometry = errors.New("core: invalid geometry")

// checkDim validates one named geometric field.
func checkDim(what, field string, v float64) error {
	switch {
	case math.IsNaN(v):
		return fmt.Errorf("%w: %s %s is NaN", ErrBadGeometry, what, field)
	case math.IsInf(v, 0):
		return fmt.Errorf("%w: %s %s is infinite", ErrBadGeometry, what, field)
	case v <= 0:
		return fmt.Errorf("%w: %s %s = %g must be positive", ErrBadGeometry, what, field, v)
	}
	return nil
}

// Technology collects the per-layer process quantities extraction
// needs. All lengths in metres.
type Technology struct {
	// Thickness is the routing layer's metal thickness.
	Thickness float64
	// Rho is the metal resistivity (Ω·m).
	Rho float64
	// EpsRel is the inter-layer dielectric constant.
	EpsRel float64
	// CapHeight is the dielectric height between the trace bottom and
	// the capacitive reference below (the orthogonal layer N−1 or a
	// ground plane).
	CapHeight float64
	// PlaneGap and PlaneThickness describe the inductive ground plane
	// in layer N−2 (and N+2 for stripline) used by the shielded
	// configurations.
	PlaneGap, PlaneThickness float64
}

// Validate checks the technology is usable, naming the offending
// field (NaN included — a NaN slips past plain sign comparisons).
func (t Technology) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Thickness", t.Thickness},
		{"Rho", t.Rho},
		{"EpsRel", t.EpsRel},
		{"CapHeight", t.CapHeight},
	} {
		if err := checkDim("technology", f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// Segment describes one clocktree wire segment: a signal trace guarded
// by two ground traces (Fig. 8/9), optionally over ground plane(s).
type Segment struct {
	Length      float64
	SignalWidth float64
	GroundWidth float64
	Spacing     float64 // edge-to-edge signal↔ground
	Shielding   geom.Shielding
}

// Validate checks the segment geometry, naming the offending field.
func (s Segment) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Length", s.Length},
		{"SignalWidth", s.SignalWidth},
		{"GroundWidth", s.GroundWidth},
		{"Spacing", s.Spacing},
	} {
		if err := checkDim("segment", f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// Extractor performs table-based RLC extraction for one layer of a
// technology.
type Extractor struct {
	Tech Technology
	// Frequency is the significant frequency (0.32/tr) extraction
	// runs at.
	Frequency float64
	tables    map[geom.Shielding]*table.Set
	cache     *table.Cache
	obs       *obs.Observer
	checks    *check.Engine
	lookup    table.LookupPolicy
}

// Option configures an Extractor at construction time.
type Option func(*Extractor)

// WithObserver routes the extractor's spans (table builds, segment
// extraction, lookups) to the given observer instead of the
// process-wide default. Metrics counters remain process-wide.
func WithObserver(o *obs.Observer) Option {
	return func(e *Extractor) { e.obs = o }
}

// WithTableCache makes NewExtractor consult the content-addressed
// on-disk cache before running any field-solver sweep and write newly
// built sets back. A cache hit constructs a ready extractor with zero
// solver calls and lookups bit-identical to a cold build.
func WithTableCache(c *table.Cache) Option {
	return func(e *Extractor) { e.cache = c }
}

// WithChecks gives this extractor its own physical-invariant policy,
// overriding the process-wide engine (check.SetPolicy) for everything
// the extractor does: its table sets are audited at construction and
// its loop compositions check the coupling bounds and positivity of
// the result. WithChecks(check.Off) explicitly disarms one extractor
// under a stricter process policy.
func WithChecks(p check.Policy) Option {
	return func(e *Extractor) { e.checks = check.New(p) }
}

// WithLookupPolicy selects what the extractor's out-of-range table
// lookups do — extrapolate (default), clamp, or error — applied to
// every set the extractor builds or loads.
func WithLookupPolicy(p table.LookupPolicy) Option {
	return func(e *Extractor) { e.lookup = p }
}

// observer returns the configured observer, falling back to the
// process default.
func (e *Extractor) observer() *obs.Observer {
	if e.obs != nil {
		return e.obs
	}
	return obs.Default()
}

// checkEngine returns the extractor's invariant engine: the WithChecks
// override when set, otherwise the process-wide engine (nil when
// disarmed — one atomic load).
func (e *Extractor) checkEngine() *check.Engine {
	if e.checks != nil {
		return e.checks
	}
	return check.Active()
}

// NewExtractorCtx builds the inductance tables for the requested
// shielding configurations (nil selects ShieldNone and
// ShieldMicrostrip) over the given axes and returns a ready extractor.
// It honours cancellation through the table builds (and the cache
// probe when WithTableCache is set): a cancelled ctx drains the sweep
// workers and returns ctx.Err().
func NewExtractorCtx(ctx context.Context, tech Technology, freq float64, axes table.Axes, shieldings []geom.Shielding, opts ...Option) (*Extractor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if freq <= 0 {
		return nil, fmt.Errorf("core: frequency must be positive, got %g", freq)
	}
	if shieldings == nil {
		shieldings = []geom.Shielding{geom.ShieldNone, geom.ShieldMicrostrip}
	}
	e := &Extractor{Tech: tech, Frequency: freq, tables: map[geom.Shielding]*table.Set{}}
	for _, o := range opts {
		o(e)
	}
	ctx, sp := e.observer().StartCtx(ctx, "core.build_tables")
	defer sp.End()
	for _, sh := range shieldings {
		cfg := table.Config{
			Name:           fmt.Sprintf("layer/%v", sh),
			Thickness:      tech.Thickness,
			Rho:            tech.Rho,
			Shielding:      sh,
			PlaneGap:       tech.PlaneGap,
			PlaneThickness: tech.PlaneThickness,
			Frequency:      freq,
		}
		var set *table.Set
		var err error
		if e.cache != nil {
			set, err = e.cache.GetOrBuildCtx(ctx, cfg, axes, e.observer())
		} else {
			set, err = table.BuildCtx(ctx, cfg, axes, e.observer())
		}
		if err != nil {
			return nil, fmt.Errorf("core: building %v tables: %w", sh, err)
		}
		set.Lookup = e.lookup
		// The build/load paths already audit under the process-wide
		// engine; a WithChecks override audits again under its own
		// policy (e.g. Strict here while the process runs Warn).
		if e.checks != nil && e.checks.Armed() {
			if err := e.checks.ReportAll(set.Audit()); err != nil {
				return nil, fmt.Errorf("core: auditing %v tables: %w", sh, err)
			}
		}
		e.tables[sh] = set
	}
	return e, nil
}

// NewExtractorFromTables wraps pre-built (e.g. loaded) table sets.
// Each shielding configuration may be supplied once, and every set
// must have been built at the extractor's significant frequency —
// inductance entries are frequency-dependent, so a library built at
// the wrong frequency would yield silently wrong loop L.
func NewExtractorFromTables(tech Technology, freq float64, sets ...*table.Set) (*Extractor, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if freq <= 0 {
		return nil, fmt.Errorf("core: frequency must be positive, got %g", freq)
	}
	e := &Extractor{Tech: tech, Frequency: freq, tables: map[geom.Shielding]*table.Set{}}
	for _, s := range sets {
		if s == nil {
			return nil, fmt.Errorf("core: nil table set")
		}
		if prev, dup := e.tables[s.Config.Shielding]; dup {
			return nil, fmt.Errorf("core: duplicate %v table sets (%q and %q); supply each shielding configuration once",
				s.Config.Shielding, prev.Config.Name, s.Config.Name)
		}
		if !sameFrequency(s.Config.Frequency, freq) {
			return nil, fmt.Errorf("core: table set %q was built at %g Hz but the extractor runs at %g Hz; rebuild the tables at the extractor's significant frequency",
				s.Config.Name, s.Config.Frequency, freq)
		}
		e.tables[s.Config.Shielding] = s
	}
	return e, nil
}

// sameFrequency tolerates only representation-level jitter (1 ppb):
// table entries vary smoothly with frequency, but a set built at a
// genuinely different significant frequency must be rejected.
func sameFrequency(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// Configure applies options to an already-constructed extractor — the
// path a long-running server takes, where the table sets are shared
// and cached but the check/lookup policies vary per request. Note
// WithTableCache and WithLookupPolicy only influence table
// construction, so they are inert here; WithChecks and WithObserver
// take full effect.
func (e *Extractor) Configure(opts ...Option) {
	for _, o := range opts {
		o(e)
	}
}

// Tables exposes the table set for a shielding configuration.
func (e *Extractor) Tables(sh geom.Shielding) (*table.Set, error) {
	set, ok := e.tables[sh]
	if !ok {
		return nil, fmt.Errorf("core: no tables built for %v", sh)
	}
	return set, nil
}

// LoopLCtx composes the segment's loop inductance from table lookups.
//
// Coplanar waveguide (no plane): with the symmetric grounds splitting
// the return evenly,
//
//	Lloop = Ls + (Lg + Mgg)/2 − 2·Msg
//
// from partial self/mutual entries. Shielded configurations
// (microstrip/stripline): the tabulated entries are already loop
// quantities with the plane as return; the two ground wires form
// shorted loops that the signal couples into, giving
//
//	Lloop = Ls − 2·Msg²/(Lg + Mgg).
//
// The lookup span parents through ctx, so concurrent callers (the
// clocktree stages) attribute per-segment lookups to the right parent
// at any worker count. The context carries tracing lineage only;
// lookups are pure reads and are not cancelled.
func (e *Extractor) LoopLCtx(ctx context.Context, s Segment) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	_, sp := e.observer().StartCtx(ctx, "table.lookup")
	defer sp.End()
	sp.SetAttr("shielding", s.Shielding.String())
	loopCompositions.Inc()
	set, err := e.Tables(s.Shielding)
	if err != nil {
		return 0, err
	}
	ls, err := set.SelfL(s.SignalWidth, s.Length)
	if err != nil {
		return 0, err
	}
	lg, err := set.SelfL(s.GroundWidth, s.Length)
	if err != nil {
		return 0, err
	}
	msg, err := set.MutualL(s.SignalWidth, s.GroundWidth, s.Spacing, s.Length)
	if err != nil {
		return 0, err
	}
	// Ground-to-ground spacing across the signal trace.
	sgg := 2*s.Spacing + s.SignalWidth
	mgg, err := set.MutualL(s.GroundWidth, s.GroundWidth, sgg, s.Length)
	if err != nil {
		return 0, err
	}
	var lloop float64
	if s.Shielding == geom.ShieldNone {
		lloop = ls + (lg+mgg)/2 - 2*msg
	} else {
		lloop = ls - 2*msg*msg/(lg+mgg)
	}
	if eng := e.checkEngine(); eng.Armed() {
		if err := checkLoopComposition(eng, s, ls, lg, msg, mgg, lloop); err != nil {
			return 0, err
		}
	}
	return lloop, nil
}

// checkLoopComposition enforces the physical bounds of a loop
// composition under an armed engine: the signal↔ground and
// ground↔ground coupling coefficients must stay below 1, and the
// composed loop inductance must come out finite and positive. A
// violation here means the table entries are individually plausible
// but mutually inconsistent — exactly what a per-value check cannot
// see.
func checkLoopComposition(eng *check.Engine, s Segment, ls, lg, msg, mgg, lloop float64) error {
	subject := fmt.Sprintf("segment (%v, l=%g, ws=%g, wg=%g, s=%g)",
		s.Shielding, s.Length, s.SignalWidth, s.GroundWidth, s.Spacing)
	report := func(invariant, detail string) error {
		return eng.Report(&check.Violation{
			Stage: check.StageSegment, Invariant: invariant,
			Subject: subject, Detail: detail,
		})
	}
	if ls > 0 && lg > 0 {
		if k := math.Abs(msg) / math.Sqrt(ls*lg); k >= 1 {
			if err := report("signal-ground coupling k < 1",
				fmt.Sprintf("k = |Msg|/sqrt(Ls*Lg) = %.4g (Msg=%g, Ls=%g, Lg=%g)", k, msg, ls, lg)); err != nil {
				return err
			}
		}
	}
	if lg > 0 {
		if k := math.Abs(mgg) / lg; k >= 1 {
			if err := report("ground-ground coupling k < 1",
				fmt.Sprintf("k = |Mgg|/Lg = %.4g (Mgg=%g, Lg=%g)", k, mgg, lg)); err != nil {
				return err
			}
		}
	}
	if math.IsNaN(lloop) || math.IsInf(lloop, 0) || lloop <= 0 {
		if err := report("loop inductance finite and positive",
			fmt.Sprintf("Lloop = %g (Ls=%g, Lg=%g, Msg=%g, Mgg=%g)", lloop, ls, lg, msg, mgg)); err != nil {
			return err
		}
	}
	return nil
}

// DirectLoopLCtx solves the full 3-wire (+plane) system with the field
// engine at full fidelity (filament-subdivided conductors, proximity
// crowding resolved), bypassing tables — the accuracy reference for
// LoopLCtx.
//
// Note on the comparison: the table method composes the loop from
// isolated 1-trace and 2-trace entries, so it cannot capture the
// drive/return proximity crowding of the assembled loop. For
// micron-gap shields at multi-GHz significant frequencies that
// approximation costs up to ~10 % of loop inductance (it vanishes at
// lower frequency or wider spacing); the interpolation itself is
// accurate to ~1–2 % (see the table package tests). This is the
// inherent envelope of the paper's method, of a kind with its own
// Table I cascading errors.
func (e *Extractor) DirectLoopLCtx(ctx context.Context, s Segment) (float64, error) {
	_, sp := e.observer().StartCtx(ctx, "core.direct_loop_l")
	defer sp.End()
	directSolves.Inc()
	blk, err := e.Block(s)
	if err != nil {
		return 0, err
	}
	sol, err := loop.SolveBlock(blk, 1, loop.Options{Frequency: e.Frequency, SubW: 4, SubT: 2})
	if err != nil {
		return 0, err
	}
	return sol.L, nil
}

// Block materialises the segment's geometry.
func (e *Extractor) Block(s Segment) (*geom.Block, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	z := e.Tech.Thickness / 2
	var blk *geom.Block
	switch s.Shielding {
	case geom.ShieldNone:
		blk = geom.CoplanarWaveguide(s.Length, s.SignalWidth, s.GroundWidth, s.Spacing,
			e.Tech.Thickness, z, e.Tech.Rho)
	case geom.ShieldMicrostrip:
		blk = geom.Microstrip(s.Length, s.SignalWidth, s.GroundWidth, s.Spacing,
			e.Tech.Thickness, z, e.Tech.Rho, e.Tech.PlaneGap, e.Tech.PlaneThickness)
	case geom.ShieldStripline:
		blk = geom.Microstrip(s.Length, s.SignalWidth, s.GroundWidth, s.Spacing,
			e.Tech.Thickness, z, e.Tech.Rho, e.Tech.PlaneGap, e.Tech.PlaneThickness)
		top := *blk.PlaneBelow
		top.Z = z + e.Tech.Thickness/2 + e.Tech.PlaneGap + e.Tech.PlaneThickness/2
		blk.PlaneAbove = &top
	default:
		return nil, fmt.Errorf("core: unsupported shielding %v", s.Shielding)
	}
	return blk, nil
}

// SegmentRLCCtx extracts the lumped totals for one segment: analytic
// AC resistance, grounded-total capacitance of the signal trace, and
// the table-composed loop inductance. The extraction span parents
// under the span carried by ctx and the loop composition's lookup span
// nests under it, so concurrent extractions attribute each lookup to
// its own segment.
func (e *Extractor) SegmentRLCCtx(ctx context.Context, s Segment) (netlist.SegmentRLC, error) {
	if err := s.Validate(); err != nil {
		return netlist.SegmentRLC{}, err
	}
	ctx, sp := e.observer().StartCtx(ctx, "core.extract")
	defer sp.End()
	sp.SetAttr("length", s.Length)
	segmentsExtracted.Inc()
	r, err := resist.ACSkinArea(s.Length, s.SignalWidth, e.Tech.Thickness, e.Tech.Rho, e.Frequency)
	if err != nil {
		return netlist.SegmentRLC{}, err
	}
	c, err := e.SegmentCap(s)
	if err != nil {
		return netlist.SegmentRLC{}, err
	}
	l, err := e.LoopLCtx(ctx, s)
	if err != nil {
		return netlist.SegmentRLC{}, err
	}
	out := netlist.SegmentRLC{R: r, L: l, C: c}
	if err := out.Validate(); err != nil {
		return netlist.SegmentRLC{}, fmt.Errorf("core: extracted values unphysical: %w", err)
	}
	return out, nil
}

// SegmentRCOnlyCtx extracts the same segment without inductance — the
// baseline netlist the paper compares against (Fig. 2 vs Fig. 3). R
// and C are extracted directly; the four table lookups of the loop
// composition are skipped entirely rather than computed and
// discarded.
func (e *Extractor) SegmentRCOnlyCtx(ctx context.Context, s Segment) (netlist.SegmentRLC, error) {
	if err := s.Validate(); err != nil {
		return netlist.SegmentRLC{}, err
	}
	_, sp := e.observer().StartCtx(ctx, "core.extract_rc")
	defer sp.End()
	sp.SetAttr("length", s.Length)
	segmentsExtracted.Inc()
	r, err := resist.ACSkinArea(s.Length, s.SignalWidth, e.Tech.Thickness, e.Tech.Rho, e.Frequency)
	if err != nil {
		return netlist.SegmentRLC{}, err
	}
	c, err := e.SegmentCap(s)
	if err != nil {
		return netlist.SegmentRLC{}, err
	}
	out := netlist.SegmentRLC{R: r, C: c}
	if err := out.Validate(); err != nil {
		return netlist.SegmentRLC{}, fmt.Errorf("core: extracted values unphysical: %w", err)
	}
	return out, nil
}

// SegmentCap returns the signal trace's total capacitance (area +
// fringe to the reference below, plus both lateral couplings treated
// as grounded), in farads.
func (e *Extractor) SegmentCap(s Segment) (float64, error) {
	blk, err := e.Block(s)
	if err != nil {
		return 0, err
	}
	caps, err := capmodel.BlockCaps(blk, e.Tech.CapHeight, e.Tech.EpsRel)
	if err != nil {
		return 0, err
	}
	return caps[1].Total() * s.Length, nil
}

// PartialNetlist builds the Section II formulation of the segment as
// a rigorous sectioned PEEC netlist: the three traces are cut into
// `sections` collinear bars, the full partial-inductance matrix of all
// 3·sections bars is computed with the field engine, and every bar
// becomes an R–L branch with mutual K elements to every other bar
// (collinear same-wire couplings included). Nothing is folded into a
// loop inductance: the simulator determines the return path, exactly
// the PEEC usage the paper's Section II describes. The ground traces
// are bonded to the circuit ground rail at every section junction —
// the paper's "regular connections to the near by ground nodes (such
// as ground C4 bumps)".
//
// The signal runs between nodes from and to; sectioned internal nodes
// are prefixed with prefix.
func (e *Extractor) PartialNetlist(nl *netlist.Netlist, prefix, from, to string, s Segment, sections int) error {
	return e.PartialNetlistOpts(nl, prefix, from, to, s, PartialOptions{Sections: sections})
}

// PartialOptions tunes the sectioned PEEC netlist formulation.
type PartialOptions struct {
	// Sections per wire.
	Sections int
	// EndBondsOnly ties the ground wires to the rail only at the
	// segment's two ends instead of at every junction — the topology a
	// designer gets without intermediate C4/ground-strap connections.
	// The shield return current is then forced uniform along the wire,
	// which raises the effective dynamic inductance above the ideal
	// loop value (the configuration behind the paper's Fig. 3 ringing).
	EndBondsOnly bool
	// CapOverride, when positive, replaces the modelled total signal
	// capacitance (used to calibrate against a published value).
	CapOverride float64
}

// PartialNetlistOpts is PartialNetlist with explicit options.
func (e *Extractor) PartialNetlistOpts(nl *netlist.Netlist, prefix, from, to string, s Segment, opts PartialOptions) error {
	sections := opts.Sections
	if sections < 1 {
		return fmt.Errorf("core: need at least one section, got %d", sections)
	}
	if s.Shielding != geom.ShieldNone {
		return fmt.Errorf("core: partial formulation models no-plane blocks; got %v", s.Shielding)
	}
	blk, err := e.Block(s)
	if err != nil {
		return err
	}
	caps, err := capmodel.BlockCaps(blk, e.Tech.CapHeight, e.Tech.EpsRel)
	if err != nil {
		return err
	}

	// Section every trace into collinear bars: bar index = wire*sections + k.
	nWires := len(blk.Traces)
	secLen := s.Length / float64(sections)
	bars := make([]peec.Bar, 0, nWires*sections)
	for _, tr := range blk.Traces {
		full := peec.BarFromTrace(tr)
		for k := 0; k < sections; k++ {
			b := full
			b.O[0] = full.O[0] + float64(k)*secLen
			b.L = secLen
			bars = append(bars, b)
		}
	}
	lp := peec.PartialMatrix(bars)

	const bondR = 1e-3
	wireNames := []string{"g1", "sig", "g2"}
	inds := make([]int, len(bars))
	for wi, tr := range blk.Traces {
		name := wireNames[wi]
		isSig := wi == 1
		rWire, err := resist.ACSkinArea(s.Length, tr.Width, e.Tech.Thickness, e.Tech.Rho, e.Frequency)
		if err != nil {
			return err
		}
		var cSec float64
		if isSig {
			cSec = caps[wi].Total() * s.Length / float64(sections)
			if opts.CapOverride > 0 {
				cSec = opts.CapOverride / float64(sections)
			}
		}
		prev := from
		if !isSig {
			prev = fmt.Sprintf("%s.%s.end0", prefix, name)
			nl.AddR(fmt.Sprintf("%s.%s.bond0", prefix, name), prev, netlist.Ground, bondR)
		}
		for k := 0; k < sections; k++ {
			bi := wi*sections + k
			end := fmt.Sprintf("%s.%s.n%d", prefix, name, k+1)
			if k == sections-1 {
				if isSig {
					end = to
				} // ground wires keep their distinct far-end node
			}
			mid := fmt.Sprintf("%s.%s.m%d", prefix, name, k)
			nl.AddR(fmt.Sprintf("%s.%s.r%d", prefix, name, k), prev, mid, rWire/float64(sections))
			inds[bi] = nl.AddL(fmt.Sprintf("%s.%s.l%d", prefix, name, k), mid, end, lp.At(bi, bi))
			if isSig {
				nl.AddC(fmt.Sprintf("%s.%s.c%d", prefix, name, k), end, netlist.Ground, cSec)
			} else if !opts.EndBondsOnly || k == sections-1 {
				nl.AddR(fmt.Sprintf("%s.%s.bond%d", prefix, name, k+1), end, netlist.Ground, bondR)
			}
			prev = end
		}
	}
	// Full mutual coupling: K for every bar pair.
	for i := 0; i < len(bars); i++ {
		for j := i + 1; j < len(bars); j++ {
			m := lp.At(i, j)
			if m == 0 {
				continue
			}
			nl.AddK(fmt.Sprintf("%s.k.%d.%d", prefix, i, j), inds[i], inds[j], m)
		}
	}
	return nil
}

// SignificantFrequency re-exports the frequency rule for callers that
// build extractors from a rise time.
func SignificantFrequency(riseTime float64) float64 {
	return units.SignificantFrequency(riseTime)
}
