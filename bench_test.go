// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark runs
// one full experiment per iteration; the table build is shared across
// benchmarks via sync.Once so the timings reflect the experiments
// themselves. BenchmarkE10 pairs quantify the point of the paper: a
// table lookup replaces a full field solve.
package clockrlc_test

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"clockrlc/internal/check"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/paper"
	"clockrlc/internal/peec"
	"clockrlc/internal/spline"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

var (
	benchOnce sync.Once
	benchExt  *core.Extractor
	benchErr  error
)

func benchExtractor(b *testing.B) *core.Extractor {
	b.Helper()
	benchOnce.Do(func() { benchExt, benchErr = paper.NewExtractor(context.Background()) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchExt
}

// BenchmarkE1Fig23 regenerates Figs. 2 and 3: the RC vs RLC transients
// of the Fig. 1 co-planar waveguide net (all three variants).
func BenchmarkE1Fig23(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.Fig23(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
		if res.CalibratedPartial.DelayRLC <= res.CalibratedPartial.DelayRC {
			b.Fatal("inductance did not slow the calibrated net")
		}
	}
}

// BenchmarkE2Fig5 regenerates Fig. 5: the loop-inductance foundations
// under a ground plane.
func BenchmarkE2Fig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := paper.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if res.Foundation1Err > 1e-9 || res.Foundation2Err > 1e-9 {
			b.Fatal("foundations violated")
		}
	}
}

// BenchmarkE3Table1 regenerates Table I: whole-tree extraction vs
// linear cascading for both Fig. 6 trees.
func BenchmarkE3Table1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := paper.Table1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.ErrPercent > 8 {
				b.Fatalf("%s: cascading error %.2f%%", r.Name, r.ErrPercent)
			}
		}
	}
}

// BenchmarkE4HTreeSkew regenerates the Section V skew study: a
// 16-leaf H-tree with a load imbalance, RC vs RLC.
func BenchmarkE4HTreeSkew(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.HTreeSkew(context.Background(), e, geom.ShieldNone)
		if err != nil {
			b.Fatal(err)
		}
		if res.SkewRLC <= 0 {
			b.Fatal("degenerate skew")
		}
	}
}

// BenchmarkE5LengthSweep regenerates the super-linear length scaling
// observation of Section V.
func BenchmarkE5LengthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := paper.LengthSweep()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkE6TableAccuracy regenerates the Section III accuracy check:
// lookups vs direct extraction over off-grid probes.
func BenchmarkE6TableAccuracy(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paper.CheckTables(context.Background(), e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7FreqSweep regenerates the R(f)/L(f) skin-effect sweep of
// the Fig. 1 trace.
func BenchmarkE7FreqSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paper.FreqSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8Shields regenerates the Fig. 8 vs Fig. 9 comparison.
func BenchmarkE8Shields(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.CompareShields(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
		if res.LoopMS >= res.LoopCPW {
			b.Fatal("plane did not reduce loop L")
		}
	}
}

// BenchmarkE9ProcessVariation regenerates the statistical study
// (nominal L + statistical RC).
func BenchmarkE9ProcessVariation(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paper.ProcessVariation(context.Background(), e, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10TableLookup times one loop-inductance composition from
// the tables — the method's fast path.
func BenchmarkE10TableLookup(b *testing.B) {
	e := benchExtractor(b)
	seg := paper.Fig1Segment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.LoopLCtx(context.Background(), seg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10TableLookupChecked is the same composition with the
// invariant engine armed in warn mode, so the per-lookup price of the
// physical checks is visible next to the disarmed number (which must
// stay indistinguishable from the pre-check baseline: disarmed is one
// atomic load).
func BenchmarkE10TableLookupChecked(b *testing.B) {
	e := benchExtractor(b)
	seg := paper.Fig1Segment()
	check.SetPolicy(check.Warn)
	defer check.SetPolicy(check.Off)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.LoopLCtx(context.Background(), seg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10TableLookupCtx is the same composition with one context
// hoisted out of the loop and tracing disarmed (the default). LoopLCtx
// is the only entry point, so this number must stay indistinguishable
// from BenchmarkE10TableLookup — scripts/bench.sh records the ratio in
// BENCH_trace.json.
func BenchmarkE10TableLookupCtx(b *testing.B) {
	e := benchExtractor(b)
	seg := paper.Fig1Segment()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.LoopLCtx(ctx, seg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10TableLookupTraced arms the process-default observer with
// a discarding sink, so the full armed span path (id allocation, event
// emission, context plumbing) is priced per lookup next to the free
// disarmed number.
func BenchmarkE10TableLookupTraced(b *testing.B) {
	e := benchExtractor(b)
	seg := paper.Fig1Segment()
	sink := obs.NopSink{}
	obs.Default().AddSink(sink)
	defer obs.Default().RemoveSink(sink)
	ctx, root := obs.StartCtx(context.Background(), "bench")
	defer root.End()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.LoopLCtx(ctx, seg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10SegmentRLC times one full segment extraction (analytic
// R, modelled C, table-composed loop L) — the per-segment cost the
// clocktree flow pays, and the hot path guarded by the instrumentation
// layer's no-op-overhead requirement.
func BenchmarkE10SegmentRLC(b *testing.B) {
	e := benchExtractor(b)
	seg := paper.Fig1Segment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SegmentRLCCtx(context.Background(), seg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10DirectSolve times the equivalent full field solve the
// lookup replaces; the ratio to BenchmarkE10TableLookup is the
// speedup the paper's method buys.
func BenchmarkE10DirectSolve(b *testing.B) {
	e := benchExtractor(b)
	seg := paper.Fig1Segment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.DirectLoopLCtx(context.Background(), seg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableBuild times a full Section III table build (the
// one-off precomputation the method amortises).
func BenchmarkTableBuild(b *testing.B) {
	cfg := table.Config{
		Name:      "bench",
		Thickness: units.Um(2),
		Rho:       units.RhoCopper,
		Shielding: geom.ShieldNone,
		Frequency: paper.Fsig,
	}
	axes := table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(14), 5),
		Spacings: table.LogAxis(units.Um(0.5), units.Um(22), 6),
		Lengths:  table.LogAxis(units.Um(50), units.Um(8000), 8),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.BuildCtx(context.Background(), cfg, axes, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableBuildWorkers times the same Section III build serially
// and with the full worker pool; the ratio is the build-parallelism
// speedup recorded in BENCH_spline.json.
func BenchmarkTableBuildWorkers(b *testing.B) {
	axes := table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(14), 5),
		Spacings: table.LogAxis(units.Um(0.5), units.Um(22), 6),
		Lengths:  table.LogAxis(units.Um(50), units.Um(8000), 8),
	}
	for _, w := range []struct {
		name    string
		workers int
	}{
		{"serial", 1}, {"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(w.name, func(b *testing.B) {
			cfg := table.Config{
				Name:      "bench/" + w.name,
				Thickness: units.Um(2),
				Rho:       units.RhoCopper,
				Shielding: geom.ShieldNone,
				Frequency: paper.Fsig,
				Workers:   w.workers,
			}
			for i := 0; i < b.N; i++ {
				if _, err := table.BuildCtx(context.Background(), cfg, axes, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: filament subdivision cost/accuracy trade of the PEEC
// engine (DESIGN.md's ablation list).
func BenchmarkAblationFilamentSubdivision(b *testing.B) {
	bar := peec.Bar{Axis: peec.AxisX, O: [3]float64{0, 0, 0}, L: units.Um(6000), W: units.Um(10), T: units.Um(2)}
	for _, n := range []struct {
		name   string
		nw, nt int
	}{
		{"2x1", 2, 1}, {"4x2", 4, 2}, {"8x4", 8, 4}, {"16x4", 16, 4},
	} {
		b.Run(n.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := peec.EffectiveRL(bar, units.RhoCopper, paper.Fsig, n.nw, n.nt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: exact Hoer–Love closed form vs filament quadrature for one
// mutual inductance.
func BenchmarkAblationMutualEvaluation(b *testing.B) {
	p := peec.Bar{Axis: peec.AxisX, O: [3]float64{0, 0, 0}, L: units.Um(1000), W: units.Um(4), T: units.Um(2)}
	q := peec.Bar{Axis: peec.AxisX, O: [3]float64{0, units.Um(6), 0}, L: units.Um(1000), W: units.Um(4), T: units.Um(2)}
	b.Run("hoer-love", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if peec.HoerLoveMutual(p, q) <= 0 {
				b.Fatal("non-positive mutual")
			}
		}
	})
	b.Run("quadrature8x4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if peec.MutualSubdivided(p, q, 8, 4, 8, 4) <= 0 {
				b.Fatal("non-positive mutual")
			}
		}
	})
}

// BenchmarkE11ShieldRule regenerates the "at least equal width"
// shielding experiment: crosstalk + cascading error vs shield width.
func BenchmarkE11ShieldRule(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.ShieldRule(context.Background(), e, []float64{0.5, 1, 2})
		if err != nil {
			b.Fatal(err)
		}
		if res.UnshieldedNoise <= res.Rows[1].PeakNoise {
			b.Fatal("shields did not help")
		}
	}
}

// BenchmarkE12Repeater regenerates the repeater-insertion study.
func BenchmarkE12Repeater(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.RepeaterInsertion(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
		if res.RLC.N > res.RC.N {
			b.Fatal("RLC optimum exceeds RC optimum")
		}
	}
}

// BenchmarkE13BusNoise regenerates the bus switching-noise study.
func BenchmarkE13BusNoise(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.BusNoise(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
		if res.PeakStorm <= res.PeakAdjacent {
			b.Fatal("bus storm not worse than single aggressor")
		}
	}
}

// BenchmarkE14SkewVariation regenerates the nominal-L-vs-full
// variation skew study (small sample count per iteration).
func BenchmarkE14SkewVariation(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.SkewVariation(context.Background(), e, 3, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if res.FullMean <= 0 {
			b.Fatal("degenerate skew")
		}
	}
}

// BenchmarkExtractorCache times ready-extractor construction cold (a
// full field-solver sweep) vs against a warm content-addressed table
// cache (zero solver calls, lookups bit-identical). The ratio is the
// "solve once, look up forever" speedup scripts/bench.sh records in
// BENCH_cache.json. A batch of segments is extracted through each
// extractor so the batch path's throughput counters move too.
func BenchmarkExtractorCache(b *testing.B) {
	tech := core.Technology{
		Thickness:      units.Um(2),
		Rho:            units.RhoCopper,
		EpsRel:         units.EpsSiO2,
		CapHeight:      units.Um(2),
		PlaneGap:       units.Um(2),
		PlaneThickness: units.Um(1),
	}
	axes := table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(14), 4),
		Spacings: table.LogAxis(units.Um(0.5), units.Um(22), 4),
		Lengths:  table.LogAxis(units.Um(50), units.Um(8000), 5),
	}
	shieldings := []geom.Shielding{geom.ShieldNone}
	segs := make([]core.Segment, 32)
	for i := range segs {
		segs[i] = core.Segment{
			Length:      units.Um(500 + 100*float64(i)),
			SignalWidth: units.Um(4),
			GroundWidth: units.Um(4),
			Spacing:     units.Um(2),
			Shielding:   geom.ShieldNone,
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := core.NewExtractorCtx(context.Background(), tech, paper.Fsig, axes, shieldings)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.SegmentsRLCCtx(context.Background(), segs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache, err := table.NewCache(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		// Prime the cache outside the timed region.
		if _, err := core.NewExtractorCtx(context.Background(), tech, paper.Fsig, axes, shieldings, core.WithTableCache(cache)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := core.NewExtractorCtx(context.Background(), tech, paper.Fsig, axes, shieldings, core.WithTableCache(cache))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.SegmentsRLCCtx(context.Background(), segs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSyntheticLibrarySet builds a realistically sized table set with
// closed-form (solver-free) values so the library-open benchmarks time
// the codecs, not the sweep. 8×8×10 axes put ~5 k mutual entries plus
// spline coefficients in the artifact — the scale of a production
// layer library.
func benchSyntheticLibrarySet(b *testing.B) *table.Set {
	b.Helper()
	axes := table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(14), 8),
		Spacings: table.LogAxis(units.Um(0.5), units.Um(22), 8),
		Lengths:  table.LogAxis(units.Um(50), units.Um(8000), 10),
	}
	nw, ns, nl := len(axes.Widths), len(axes.Spacings), len(axes.Lengths)
	const t = 2e-6
	selfL := func(w, l float64) float64 {
		return 2e-7 * l * (math.Log(2*l/(w+t)) + 0.5 + 0.2235*(w+t)/l)
	}
	selfVals := make([]float64, nw*nl)
	for i, w := range axes.Widths {
		for k, l := range axes.Lengths {
			selfVals[i*nl+k] = selfL(w, l)
		}
	}
	mutVals := make([]float64, nw*nw*ns*nl)
	for i1, w1 := range axes.Widths {
		for i2, w2 := range axes.Widths {
			for j, sp := range axes.Spacings {
				for k, l := range axes.Lengths {
					d := sp + (w1+w2)/2
					m := 2e-7 * l * (math.Log(2*l/d) - 1 + d/l)
					if m < 0 {
						m = 0
					}
					mutVals[((i1*nw+i2)*ns+j)*nl+k] = m
				}
			}
		}
	}
	s := &table.Set{
		Config: table.Config{
			Name:      "bench/synthetic",
			Thickness: units.Um(2),
			Rho:       units.RhoCopper,
			Frequency: paper.Fsig,
		},
		Axes: axes,
	}
	var err error
	if s.Self, err = spline.NewGrid([][]float64{axes.Widths, axes.Lengths}, selfVals); err != nil {
		b.Fatal(err)
	}
	if s.Mutual, err = spline.NewGrid(
		[][]float64{axes.Widths, axes.Widths, axes.Spacings, axes.Lengths}, mutVals); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkLibraryOpen times opening one stored table set ready for
// lookups: the v2 JSON codec parses and re-derives spline coefficient
// matrices; the v3 binary codec verifies a checksum and mmaps the
// value and coefficient blocks in place. scripts/bench.sh records the
// ratio in BENCH_mmap.json as library_open_speedup_vs_v2.
func BenchmarkLibraryOpen(b *testing.B) {
	s := benchSyntheticLibrarySet(b)
	dir := b.TempDir()
	v2 := filepath.Join(dir, "set.json")
	v3 := filepath.Join(dir, "set.rlct")
	if err := s.SaveFile(v2); err != nil {
		b.Fatal(err)
	}
	if err := s.SaveFileV3(v3); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, path string }{{"v2", v2}, {"v3", v3}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set, err := table.LoadFile(bc.path)
				if err != nil {
					b.Fatal(err)
				}
				if err := set.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLookupBatch prices one clocktree's worth of loop
// compositions per iteration — 1024 segments drawn from 16 distinct
// geometries, the repetition an H-tree exhibits — through the scalar
// per-segment path (four table lookups each) and the vectorized
// LoopLBatch path (two batched lookups per shielding group, repeated
// geometries deduped inside the spline contraction). The ns/q metric
// is the per-segment cost scripts/bench.sh records in BENCH_mmap.json.
func BenchmarkLookupBatch(b *testing.B) {
	e := benchExtractor(b)
	base := paper.Fig1Segment()
	segs := make([]core.Segment, 1024)
	for i := range segs {
		g := base
		// 16 distinct geometries, cycled.
		v := float64(i % 16)
		g.Length = units.Um(400 + 300*v)
		g.SignalWidth = units.Um(2 + v/4)
		g.GroundWidth = units.Um(2 + v/8)
		g.Spacing = units.Um(1 + v/16)
		segs[i] = g
	}
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range segs {
				if _, err := e.LoopLCtx(context.Background(), s); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(segs)), "ns/q")
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.LoopLBatchCtx(context.Background(), segs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(segs)), "ns/q")
	})
}
