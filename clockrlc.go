// Package clockrlc is a clocktree RLC extractor with efficient
// table-based inductance modeling, reproducing Chang, Lin, He,
// Nakagawa and Xie, "Clocktree RLC Extraction with Efficient
// Inductance Modeling" (DATE 2000).
//
// The public surface re-exports the library's building blocks:
//
//   - geometry and technology description (Trace, Block, shielding
//     configurations),
//   - the PEEC partial-inductance engine and loop-inductance solver
//     that stand in for the paper's Raphael RI3 runs,
//   - pre-computed self/mutual inductance tables with bicubic-spline
//     lookup (Section III),
//   - segment RLC extraction and netlist formulation (Section V),
//   - linear cascading of shielded segments (Section IV, Table I),
//   - an MNA transient simulator and an H-tree clock network model for
//     delay/skew studies,
//   - a statistical RC variation model (Section V's process-variation
//     study).
//
// Quick start:
//
//	tech := clockrlc.Technology{
//		Thickness: clockrlc.Um(2), Rho: clockrlc.RhoCopper,
//		EpsRel: clockrlc.EpsSiO2, CapHeight: clockrlc.Um(2),
//		PlaneGap: clockrlc.Um(2), PlaneThickness: clockrlc.Um(1),
//	}
//	freq := clockrlc.SignificantFrequency(100 * clockrlc.PicoSecond)
//	ext, err := clockrlc.NewExtractor(tech, freq, clockrlc.DefaultAxes(), nil)
//	...
//	rlc, err := ext.SegmentRLCCtx(context.Background(), clockrlc.Segment{
//		Length: clockrlc.Um(6000), SignalWidth: clockrlc.Um(10),
//		GroundWidth: clockrlc.Um(5), Spacing: clockrlc.Um(1),
//		Shielding: clockrlc.ShieldNone,
//	})
//
// See the examples/ directory for full programs and DESIGN.md /
// EXPERIMENTS.md for the paper-reproduction map.
package clockrlc

import (
	"context"
	"io"

	"clockrlc/internal/bus"
	"clockrlc/internal/cascade"
	"clockrlc/internal/check"
	"clockrlc/internal/ckpt"
	"clockrlc/internal/clocktree"
	"clockrlc/internal/core"
	"clockrlc/internal/elmore"
	"clockrlc/internal/geom"
	"clockrlc/internal/loop"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
	"clockrlc/internal/peec"
	"clockrlc/internal/repeater"
	"clockrlc/internal/screen"
	"clockrlc/internal/sim"
	"clockrlc/internal/sizing"
	"clockrlc/internal/statrc"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
	"clockrlc/internal/xtalk"
)

// Physical constants and unit helpers.
const (
	Mu0         = units.Mu0
	Eps0        = units.Eps0
	EpsSiO2     = units.EpsSiO2
	RhoCopper   = units.RhoCopper
	RhoAluminum = units.RhoAluminum
	PicoSecond  = units.PicoSecond
	NanoHenry   = units.NanoHenry
	FemtoFarad  = units.FemtoFarad
)

// Um converts microns to metres.
func Um(v float64) float64 { return units.Um(v) }

// ToUm converts metres to microns.
func ToUm(v float64) float64 { return units.ToUm(v) }

// ToNH converts henries to nanohenries.
func ToNH(v float64) float64 { return units.ToNH(v) }

// ToFF converts farads to femtofarads.
func ToFF(v float64) float64 { return units.ToFF(v) }

// ToPS converts seconds to picoseconds.
func ToPS(v float64) float64 { return units.ToPS(v) }

// SignificantFrequency is the paper's extraction-frequency rule
// f = 0.32/tr.
func SignificantFrequency(riseTime float64) float64 {
	return units.SignificantFrequency(riseTime)
}

// SkinDepth returns the conductor skin depth at frequency f.
func SkinDepth(rho, f float64) float64 { return units.SkinDepth(rho, f) }

// Geometry and shielding configurations.
type (
	// Trace is a rectangular conductor.
	Trace = geom.Trace
	// Block is a coplanar multi-trace extraction unit (Fig. 4).
	Block = geom.Block
	// GroundPlane is a local AC-ground plane in a neighbouring layer.
	GroundPlane = geom.GroundPlane
	// Shielding selects the building-block configuration.
	Shielding = geom.Shielding
)

// Shielding configurations (Figs. 8 and 9).
const (
	ShieldNone       = geom.ShieldNone
	ShieldMicrostrip = geom.ShieldMicrostrip
	ShieldStripline  = geom.ShieldStripline
)

// CoplanarWaveguide builds the ground/signal/ground block of Fig. 8.
func CoplanarWaveguide(length, sigWidth, gndWidth, spacing, thickness, z, rho float64) *Block {
	return geom.CoplanarWaveguide(length, sigWidth, gndWidth, spacing, thickness, z, rho)
}

// Microstrip builds the Fig. 9 block with a local ground plane below.
func Microstrip(length, sigWidth, gndWidth, spacing, thickness, z, rho, planeGap, planeThickness float64) *Block {
	return geom.Microstrip(length, sigWidth, gndWidth, spacing, thickness, z, rho, planeGap, planeThickness)
}

// Extraction methodology (Sections III and V).
type (
	// Technology is the per-layer process description.
	Technology = core.Technology
	// Segment is one shielded clocktree wire segment.
	Segment = core.Segment
	// Extractor performs table-based RLC extraction.
	Extractor = core.Extractor
	// TableConfig identifies a table set's extraction context.
	TableConfig = table.Config
	// TableAxes are the sweep points of a table build.
	TableAxes = table.Axes
	// TableSet is one built self+mutual table pair.
	TableSet = table.Set
)

// NewExtractor builds inductance tables and returns an extractor.
// Options (e.g. WithObserver) configure instrumentation.
func NewExtractor(tech Technology, freq float64, axes TableAxes, shieldings []Shielding, opts ...ExtractorOption) (*Extractor, error) {
	return core.NewExtractorCtx(context.Background(), tech, freq, axes, shieldings, opts...)
}

// NewExtractorCtx is NewExtractor honouring cancellation: a cancelled
// ctx aborts the table sweeps within one cell's solve and returns
// ctx.Err().
func NewExtractorCtx(ctx context.Context, tech Technology, freq float64, axes TableAxes, shieldings []Shielding, opts ...ExtractorOption) (*Extractor, error) {
	return core.NewExtractorCtx(ctx, tech, freq, axes, shieldings, opts...)
}

// NewExtractorFromTables wraps previously built or loaded tables.
func NewExtractorFromTables(tech Technology, freq float64, sets ...*TableSet) (*Extractor, error) {
	return core.NewExtractorFromTables(tech, freq, sets...)
}

// BuildTables precomputes one table set (Section III).
func BuildTables(cfg TableConfig, axes TableAxes) (*TableSet, error) {
	return table.BuildCtx(context.Background(), cfg, axes, nil)
}

// BuildTablesCtx is BuildTables with cancellation; see NewExtractorCtx.
func BuildTablesCtx(ctx context.Context, cfg TableConfig, axes TableAxes) (*TableSet, error) {
	return table.BuildCtx(ctx, cfg, axes, nil)
}

// LoadTables reads a table set saved with TableSet.SaveFile.
func LoadTables(path string) (*TableSet, error) { return table.LoadFile(path) }

// DefaultAxes is a sensible clocktree sweep range.
func DefaultAxes() TableAxes { return table.DefaultAxes() }

// LogAxis returns n log-spaced sweep points.
func LogAxis(a, b float64, n int) []float64 { return table.LogAxis(a, b, n) }

// Loop-inductance solving (Section II).
type (
	// LoopOptions configures a loop solve.
	LoopOptions = loop.Options
	// LoopSolution is a loop solve result.
	LoopSolution = loop.Solution
)

// SolveLoop computes a block's loop R/L with merged returns.
func SolveLoop(blk *Block, signalIdx int, opts LoopOptions) (*LoopSolution, error) {
	return loop.SolveBlock(blk, signalIdx, opts)
}

// LoopMatrix computes the Fig. 5 loop inductance matrix of a block.
func LoopMatrix(blk *Block, opts LoopOptions) ([][]float64, error) {
	m, err := loop.LoopMatrix(blk, opts)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = make([]float64, m.Cols)
		for j := range out[i] {
			out[i][j] = m.At(i, j)
		}
	}
	return out, nil
}

// Partial inductance engine (the RI3/FastHenry stand-in).
type (
	// Bar is a rectangular PEEC conductor.
	Bar = peec.Bar
)

// SelfInductance returns the exact partial self inductance of a bar.
func SelfInductance(b Bar) float64 { return peec.HoerLoveSelf(b) }

// MutualInductance returns the exact partial mutual inductance of two
// parallel bars (zero for orthogonal bars).
func MutualInductance(a, b Bar) float64 { return peec.HoerLoveMutual(a, b) }

// Netlists and simulation (the SPICE stand-in).
type (
	// Netlist is an editable linear circuit.
	Netlist = netlist.Netlist
	// SegmentRLC carries one segment's lumped extraction totals.
	SegmentRLC = netlist.SegmentRLC
	// Ramp is the buffer-edge source waveform.
	Ramp = netlist.Ramp
	// PWL is a piece-wise-linear waveform.
	PWL = netlist.PWL
	// SimResult is a transient run's waveforms.
	SimResult = sim.Result
)

// NewNetlist returns an empty circuit.
func NewNetlist() *Netlist { return netlist.New() }

// Named failure modes, matchable with errors.Is.
var (
	// SimDiverged marks a simulation whose solution went non-finite.
	SimDiverged = sim.ErrDiverged
	// BadGeometry marks rejected segment/technology inputs.
	BadGeometry = core.ErrBadGeometry
)

// Transient runs the trapezoidal MNA simulation.
func Transient(nl *Netlist, h, tstop float64, probes []string) (*SimResult, error) {
	return sim.TransientCtx(context.Background(), nl, h, tstop, probes)
}

// TransientCtx is Transient honouring cancellation (checked every few
// steps) and guarding against divergence (SimDiverged).
func TransientCtx(ctx context.Context, nl *Netlist, h, tstop float64, probes []string) (*SimResult, error) {
	return sim.TransientCtx(ctx, nl, h, tstop, probes)
}

// Delay50 measures the 50 %-swing delay between two waveforms.
func Delay50(t, from, to []float64, v0, v1 float64) (float64, error) {
	return sim.Delay50(t, from, to, v0, v1)
}

// DelayFromT0 measures a waveform's 50 % arrival from t = 0.
func DelayFromT0(t, v []float64, v0, v1 float64) (float64, error) {
	return sim.DelayFromT0(t, v, v0, v1)
}

// Overshoot measures fractional overshoot and the following
// undershoot of a settling waveform.
func Overshoot(v []float64, v0, vf float64) (over, under float64) {
	return sim.Overshoot(v, v0, vf)
}

// Linear cascading (Section IV).
type (
	// CascadeTree is a routed tree of three-wire segments.
	CascadeTree = cascade.Tree
	// CascadeSegment is one tree edge.
	CascadeSegment = cascade.SegmentSpec
	// CascadeCross is the shared three-wire profile.
	CascadeCross = cascade.CrossSection
	// CascadeDir is a routing direction.
	CascadeDir = cascade.Dir
)

// Routing directions for cascade trees.
const (
	XPlus  = cascade.XPlus
	XMinus = cascade.XMinus
	YPlus  = cascade.YPlus
	YMinus = cascade.YMinus
)

// NewCascadeTree lays out a routed tree.
func NewCascadeTree(root string, specs []CascadeSegment, cross CascadeCross, rho float64) (*CascadeTree, error) {
	return cascade.NewTree(root, specs, cross, rho)
}

// Fig6a and Fig6b rebuild the paper's Table I trees.
func Fig6a(rho float64) (*CascadeTree, error) { return cascade.Fig6a(rho) }

// Fig6b rebuilds the paper's second Table I tree.
func Fig6b(rho float64) (*CascadeTree, error) { return cascade.Fig6b(rho) }

// Clocktree modeling (Section V).
type (
	// ClockBuffer is the clock buffer model.
	ClockBuffer = clocktree.Buffer
	// ClockLevel is one buffer level's wire geometry.
	ClockLevel = clocktree.Level
	// ClockTree is a buffered H-tree.
	ClockTree = clocktree.Tree
	// ClockSimOptions controls tree simulation.
	ClockSimOptions = clocktree.SimOptions
	// ClockArrivalStats is the bounded-memory arrival summary the
	// streaming Analyze walk produces for trees too deep to hold a
	// per-leaf arrivals slice.
	ClockArrivalStats = clocktree.ArrivalStats
	// ClockSkewReport is the skew with the extreme leaves named.
	ClockSkewReport = clocktree.SkewReport
	// ClockCheckpoint configures durable checkpoint/resume for long
	// tree analyses (see ClockTree.OpenCheckpoint and AnalyzeCtx).
	ClockCheckpoint = clocktree.Checkpoint
	// CheckpointStore is the durable, job-keyed checkpoint store
	// behind crash-safe analyses.
	CheckpointStore = ckpt.Store
)

// ErrNoCheckpoint reports that a checkpoint store holds no valid
// record for its job (resume degrades to a cold start).
var ErrNoCheckpoint = ckpt.ErrNoCheckpoint

// NewClockTree assembles an H-tree clock network.
func NewClockTree(levels []ClockLevel, buf ClockBuffer, ext *Extractor) (*ClockTree, error) {
	return clocktree.NewTree(levels, buf, ext)
}

// OpenCheckpointStore opens (creating if needed) a checkpoint store
// under dir for an arbitrary job key.
func OpenCheckpointStore(dir string, jobKey [32]byte) (*CheckpointStore, error) {
	return ckpt.Open(dir, jobKey)
}

// HTreeLevels builds a halving H-tree level stack.
func HTreeLevels(halfSpan float64, nLevels int, seg Segment) []ClockLevel {
	return clocktree.HTreeLevels(halfSpan, nLevels, seg)
}

// Process variation (Section V / ref. [4] substitute).
type (
	// ProcessVariation holds 1σ process variations.
	ProcessVariation = statrc.Variation
	// ProcessSample is one drawn corner.
	ProcessSample = statrc.Sample
	// Spread summarises a Monte-Carlo population.
	Spread = statrc.Spread
)

// PerturbedRLC extracts a segment under a process sample.
func PerturbedRLC(e *Extractor, seg Segment, s ProcessSample) (SegmentRLC, error) {
	return statrc.PerturbedRLC(context.Background(), e, seg, s)
}

// MonteCarlo measures R/C/L spreads under process variation.
func MonteCarlo(e *Extractor, seg Segment, v ProcessVariation, n int, seed int64) (r, c, l Spread, err error) {
	return statrc.MonteCarlo(context.Background(), e, seg, v, n, seed)
}

// Analytic delay baselines and the inductance screen.
type (
	// DelayLine is a driver + wire + load configuration for the
	// closed-form delay estimators.
	DelayLine = elmore.Line
	// ScreenVerdict is the inductance-significance screen's decision.
	ScreenVerdict = screen.Verdict
)

// ElmoreDelay returns the classic RC 50 % delay estimate.
func ElmoreDelay(l DelayLine) (float64, error) { return elmore.ElmoreDelay(l) }

// TwoPoleDelay returns the two-pole RLC 50 % delay estimate.
func TwoPoleDelay(l DelayLine) (float64, error) { return elmore.TwoPoleDelay(l) }

// DampingRatio returns ζ of the driver+line+load equivalent.
func DampingRatio(l DelayLine) (float64, error) { return elmore.DampingRatio(l) }

// ScreenInductance decides cheaply whether a net needs RLC extraction
// at all for edges of the given rise time.
func ScreenInductance(l DelayLine, riseTime float64) (ScreenVerdict, error) {
	return screen.Check(l, riseTime)
}

// Crosstalk analysis of shielded clock segments.
type (
	// XtalkScenario places an aggressor next to a shielded victim.
	XtalkScenario = xtalk.Scenario
	// XtalkResult is one crosstalk run.
	XtalkResult = xtalk.Result
	// ShieldSweepPoint is one row of a shield-width sweep.
	ShieldSweepPoint = xtalk.ShieldSweepPoint
)

// RunCrosstalk simulates an aggressor switching next to a quiet,
// shielded clock segment and reports the victim's peak noise.
func RunCrosstalk(e *Extractor, sc XtalkScenario) (*XtalkResult, error) {
	return xtalk.Run(context.Background(), e, sc)
}

// ShieldWidthSweep probes the paper's "at least equal width" rule:
// victim noise vs shield-to-signal width ratio.
func ShieldWidthSweep(e *Extractor, base XtalkScenario, ratios []float64) ([]ShieldSweepPoint, error) {
	return xtalk.ShieldWidthSweep(context.Background(), e, base, ratios)
}

// ACAnalysis performs a small-signal frequency sweep of a netlist.
func ACAnalysis(nl *Netlist, freqs []float64, acMag map[string]float64, probes []string) (*ACSweepResult, error) {
	return sim.ACCtx(context.Background(), nl, freqs, acMag, probes)
}

// ACAnalysisCtx is ACAnalysis honouring cancellation between frequency
// points.
func ACAnalysisCtx(ctx context.Context, nl *Netlist, freqs []float64, acMag map[string]float64, probes []string) (*ACSweepResult, error) {
	return sim.ACCtx(ctx, nl, freqs, acMag, probes)
}

// ACSweepResult is a small-signal sweep result.
type ACSweepResult = sim.ACResult

// Wire-width optimization (the paper's "extraction and optimization"
// application).
type (
	// SizingSpec fixes a stage's geometry and drive for width sizing.
	SizingSpec = sizing.Spec
	// SizingPoint is one candidate width's outcome.
	SizingPoint = sizing.Point
)

// SweepWidth evaluates candidate signal widths at fixed pitch.
func SweepWidth(e *Extractor, s SizingSpec, widths []float64) ([]SizingPoint, error) {
	return sizing.SweepWidthCtx(context.Background(), e, s, widths)
}

// OptimizeWidth picks the minimum-delay width from the candidates.
func OptimizeWidth(e *Extractor, s SizingSpec, widths []float64) (SizingPoint, []SizingPoint, error) {
	return sizing.OptimizeCtx(context.Background(), e, s, widths)
}

// Repeater insertion and bus analysis applications.
type (
	// RepeaterBuffer is the repeater model for insertion studies.
	RepeaterBuffer = repeater.Buffer
	// RepeaterSpec is a repeater-insertion problem.
	RepeaterSpec = repeater.Spec
	// RepeaterPoint is the outcome for one repeater count.
	RepeaterPoint = repeater.Point
	// BusSpec describes a Fig. 4 bus structure.
	BusSpec = bus.Spec
	// BusResult is one bus switching-noise run.
	BusResult = bus.Result
)

// OptimizeRepeaters sweeps repeater counts 1..maxN and returns the
// minimum-delay insertion.
func OptimizeRepeaters(e *Extractor, s RepeaterSpec, maxN int) (RepeaterPoint, []RepeaterPoint, error) {
	return repeater.Optimize(context.Background(), e, s, maxN)
}

// BusNoise simulates aggressors switching on a shielded bus and
// reports each quiet victim's peak noise.
func BusNoise(e *Extractor, s BusSpec, aggressors []int, probeVictim int) (*BusResult, error) {
	return bus.Noise(context.Background(), e, s, aggressors, probeVictim)
}

// TableCache is a content-addressed on-disk store of built table
// sets: a stable hash of (TableConfig, TableAxes, codec version)
// addresses each entry, writes are atomic, and concurrent extractions
// across processes can share one pre-built artifact. A cache hit
// constructs a ready extractor with zero field-solver calls.
type TableCache = table.Cache

// NewTableCache opens (creating if needed) a table cache rooted at dir.
func NewTableCache(dir string) (*TableCache, error) { return table.NewCache(dir) }

// WithTableCache makes NewExtractor consult the cache before running
// any field-solver sweep and write newly built sets back.
func WithTableCache(c *TableCache) ExtractorOption { return core.WithTableCache(c) }

// TableCacheKey returns the content address the cache files a build
// of (cfg, axes) under.
func TableCacheKey(cfg TableConfig, axes TableAxes) (string, error) {
	return table.CacheKey(cfg, axes)
}

// TableLibrary manages one technology's table sets (one per layer and
// shielding configuration) with directory persistence.
type TableLibrary = table.Library

// NewTableLibrary returns an empty library.
func NewTableLibrary() *TableLibrary { return table.NewLibrary() }

// LoadTableLibrary reads every table set saved in a directory.
func LoadTableLibrary(dir string) (*TableLibrary, error) { return table.LoadDir(dir) }

// Multi-layer extraction: the paper builds tables per routing layer.
type (
	// LayerTech names one routing layer's technology parameters.
	LayerTech = core.LayerTech
	// MultiExtractor holds one table-backed extractor per layer.
	MultiExtractor = core.MultiExtractor
)

// NewMultiExtractor builds per-layer tables over shared axes.
func NewMultiExtractor(layers []LayerTech, freq float64, axes TableAxes, shieldings []Shielding) (*MultiExtractor, error) {
	return core.NewMultiExtractor(context.Background(), layers, freq, axes, shieldings)
}

// StackFromTechnology derives per-layer technologies from a geometry
// stack description.
func StackFromTechnology(t GeomTechnology, capFloor, planeGap, planeThickness float64) ([]LayerTech, error) {
	return core.StackFromTechnology(t, capFloor, planeGap, planeThickness)
}

// GeomTechnology is the multi-layer stack description from the
// geometry model (layers bottom to top, shared dielectric).
type GeomTechnology = geom.Technology

// GeomLayer is one routing layer of a GeomTechnology.
type GeomLayer = geom.Layer

// Observability: span tracing, metrics and trace sinks (see the
// "Observability" sections of README.md and DESIGN.md).
type (
	// Observer collects hierarchical timing spans and routes them to
	// sinks. The zero-cost process default is obtained with
	// DefaultObserver.
	Observer = obs.Observer
	// ObsSpan is one timed region of work.
	ObsSpan = obs.Span
	// ObsSink consumes trace events (span starts/ends, metric
	// snapshots).
	ObsSink = obs.Sink
	// ObsEvent is one emitted trace record.
	ObsEvent = obs.Event
	// MetricsSnapshot is a point-in-time copy of every registered
	// counter, gauge and histogram.
	MetricsSnapshot = obs.Snapshot
	// ExtractorOption configures NewExtractor/NewMultiExtractor.
	ExtractorOption = core.Option
)

// WithObserver routes an extractor's spans to the given observer.
func WithObserver(o *Observer) ExtractorOption { return core.WithObserver(o) }

// DefaultObserver returns the process-wide observer used by all
// instrumented code unless overridden. It is disabled (and its spans
// cost nothing) until a sink is attached with AddSink.
func DefaultObserver() *Observer { return obs.Default() }

// NewObserver returns an independent observer emitting to the sinks.
func NewObserver(sinks ...ObsSink) *Observer { return obs.New(sinks...) }

// NewJSONLTraceSink returns a sink writing one JSON object per event
// to w (the JSON-lines trace format of the -trace CLI flag).
func NewJSONLTraceSink(w io.Writer) ObsSink { return obs.NewJSONLSink(w) }

// SnapshotMetrics captures the process-wide metrics registry.
func SnapshotMetrics() *MetricsSnapshot { return obs.DefaultRegistry().Snapshot() }

// ResetMetrics zeroes every process-wide counter, gauge and histogram
// (existing metric handles remain valid).
func ResetMetrics() { obs.DefaultRegistry().Reset() }

// PublishMetricsExpvar exposes the metrics registry through the
// standard expvar endpoint (/debug/vars) under the key "clockrlc".
func PublishMetricsExpvar() { obs.PublishExpvar() }

// StartSpanCtx begins a span on the default observer parented to the
// span carried by ctx, returning a derived context carrying the new
// span — the concurrency-correct way to trace around the *Ctx entry
// points (NewExtractorCtx, BuildTablesCtx, TransientCtx, ...), which
// all propagate the context's span into their own sub-spans. With no
// sink attached this is one atomic load and returns ctx unchanged.
func StartSpanCtx(ctx context.Context, name string) (context.Context, ObsSpan) {
	return obs.StartCtx(ctx, name)
}

// ContextWithSpan returns ctx carrying sp as the parent for
// StartSpanCtx spans started under it.
func ContextWithSpan(ctx context.Context, sp ObsSpan) context.Context {
	return obs.ContextWithSpan(ctx, sp)
}

// SpanFromContext returns the span carried by ctx (a zero, disabled
// span when none).
func SpanFromContext(ctx context.Context) ObsSpan { return obs.SpanFromContext(ctx) }

// SampleRuntimeMetrics records the Go runtime's self-metrics (heap,
// GC, goroutine count) into the process-wide registry as
// runtime.* gauges; see also the periodic sampler every cmd starts
// alongside -trace/-metrics/-pprof.
func SampleRuntimeMetrics() { obs.SampleRuntime(obs.DefaultRegistry()) }

// ClampedTableLookups reports how many table lookups fell outside the
// built axes and were answered by spline extrapolation — nonzero
// values mean the table axes should be widened for this design.
func ClampedTableLookups() int64 { return table.ClampedLookups() }

// Physical-invariant validation (see the "Validation & invariants"
// sections of README.md and DESIGN.md): audits of built/loaded table
// sets, coupling bounds at loop composition, cascade positivity and
// sim output sanity, under a configurable policy.
type (
	// CheckPolicy selects what a detected invariant violation does:
	// CheckStrict returns a named error, CheckWarn counts it and
	// continues, CheckOff disarms every check site (one atomic load).
	CheckPolicy = check.Policy
	// CheckViolation is one observed breach of a physical invariant,
	// naming the stage, subject, cell and invariant. It is the error
	// returned under CheckStrict.
	CheckViolation = check.Violation
	// TableLookupPolicy selects what out-of-range table lookups do.
	TableLookupPolicy = table.LookupPolicy
)

// Check policies.
const (
	CheckOff    = check.Off
	CheckWarn   = check.Warn
	CheckStrict = check.Strict
)

// Table lookup policies for coordinates outside the built axes.
const (
	// TableLookupExtrapolate lets the spline extrapolate linearly (the
	// default, the paper's "mild extrapolation").
	TableLookupExtrapolate = table.LookupExtrapolate
	// TableLookupClamp clamps coordinates to the axis endpoints.
	TableLookupClamp = table.LookupClamp
	// TableLookupError refuses with an error unwrapping to
	// ErrTableOutOfRange.
	TableLookupError = table.LookupError
)

// Named error sentinels of the validation layer.
var (
	// ErrCheckViolation matches (errors.Is) every strict-mode
	// invariant violation.
	ErrCheckViolation = check.ErrViolation
	// ErrTableOutOfRange matches lookups refused under
	// TableLookupError.
	ErrTableOutOfRange = table.ErrOutOfRange
)

// SetCheckPolicy arms (or, with CheckOff, disarms) the process-wide
// invariant engine. The cmds expose this as -check=strict|warn|off.
func SetCheckPolicy(p CheckPolicy) { check.SetPolicy(p) }

// ParseCheckPolicy parses "off", "warn" or "strict".
func ParseCheckPolicy(s string) (CheckPolicy, error) { return check.ParsePolicy(s) }

// ParseTableLookupPolicy parses "extrapolate", "clamp" or "error".
func ParseTableLookupPolicy(s string) (TableLookupPolicy, error) {
	return table.ParseLookupPolicy(s)
}

// WithChecks gives one extractor its own invariant policy, overriding
// the process-wide engine: its table sets are audited at construction
// and its loop compositions check coupling bounds and positivity.
func WithChecks(p CheckPolicy) ExtractorOption { return core.WithChecks(p) }

// WithLookupPolicy selects the out-of-range behaviour of every table
// set the extractor builds or loads.
func WithLookupPolicy(p TableLookupPolicy) ExtractorOption { return core.WithLookupPolicy(p) }

// AuditTables checks every physical invariant of a built or loaded
// table set — self-L finite/positive/monotone, mutual symmetry,
// coupling k < 1, spline spike detection between knots — and returns
// all violations found (nil for a clean set), regardless of the
// process check policy.
func AuditTables(s *TableSet) []CheckViolation { return s.Audit() }

// CheckViolationCount reports the process-wide number of invariant
// violations recorded (the check.violations metric).
func CheckViolationCount() int64 { return check.Violations() }
