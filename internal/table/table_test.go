package table

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"clockrlc/internal/geom"
	"clockrlc/internal/loop"
	"clockrlc/internal/peec"
	"clockrlc/internal/units"
)

const fsig = 3.2e9

func freeConfig() Config {
	return Config{
		Name:      "M6/coplanar",
		Thickness: units.Um(2),
		Rho:       units.RhoCopper,
		Shielding: geom.ShieldNone,
		Frequency: fsig,
	}
}

func microstripConfig() Config {
	c := freeConfig()
	c.Name = "M6/microstrip"
	c.Shielding = geom.ShieldMicrostrip
	c.PlaneGap = units.Um(2)
	c.PlaneThickness = units.Um(1)
	c.PlaneStrips = 10
	return c
}

func smallAxes() Axes {
	return Axes{
		Widths:   LogAxis(units.Um(1), units.Um(12), 4),
		Spacings: LogAxis(units.Um(0.8), units.Um(6), 4),
		Lengths:  LogAxis(units.Um(100), units.Um(6000), 6),
	}
}

func TestBuildFreeAndLookupAccuracy(t *testing.T) {
	set, err := BuildCtx(context.Background(), freeConfig(), smallAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Off-grid probes: compare lookup against direct extraction. This
	// is experiment E6 in miniature — the paper's claim is no loss of
	// accuracy beyond interpolation error.
	probes := []struct{ w, l float64 }{
		{units.Um(2.3), units.Um(900)},
		{units.Um(7.7), units.Um(3300)},
		{units.Um(10), units.Um(6000)}, // the Fig.1 signal trace
	}
	for _, p := range probes {
		got, err := set.SelfL(p.w, p.l)
		if err != nil {
			t.Fatal(err)
		}
		rl, err := peec.EffectiveRL(
			peec.Bar{Axis: peec.AxisX, O: [3]float64{0, -p.w / 2, 0}, L: p.l, W: p.w, T: units.Um(2)},
			units.RhoCopper, fsig, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-rl.L) / rl.L; !(rel <= 0.02) {
			t.Errorf("self lookup (w=%g, l=%g): %g vs direct %g (rel %g)", p.w, p.l, got, rl.L, rel)
		}
	}
	// Mutual probe.
	w1, w2, sp, l := units.Um(3), units.Um(5), units.Um(2), units.Um(2000)
	got, err := set.MutualL(w1, w2, sp, l)
	if err != nil {
		t.Fatal(err)
	}
	a := peec.Bar{Axis: peec.AxisX, O: [3]float64{0, 0, 0}, L: l, W: w1, T: units.Um(2)}
	b := peec.Bar{Axis: peec.AxisX, O: [3]float64{0, w1 + sp, 0}, L: l, W: w2, T: units.Um(2)}
	want := peec.HoerLoveMutual(a, b)
	if rel := math.Abs(got-want) / want; !(rel <= 0.02) {
		t.Errorf("mutual lookup: %g vs direct %g (rel %g)", got, want, rel)
	}
}

func TestBuildMicrostripLoopTables(t *testing.T) {
	set, err := BuildCtx(context.Background(), microstripConfig(), smallAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Loop L over a plane must be well below the free partial L.
	free, err := BuildCtx(context.Background(), freeConfig(), smallAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	w, l := units.Um(4), units.Um(2000)
	ms, err := set.SelfL(w, l)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := free.SelfL(w, l)
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 || ms >= fr {
		t.Errorf("microstrip loop L %g must be in (0, free Lp %g)", ms, fr)
	}
	// Off-grid microstrip probe vs direct loop solve.
	got, err := set.SelfL(units.Um(2.7), units.Um(1500))
	if err != nil {
		t.Fatal(err)
	}
	cfg := microstripConfig().withDefaults()
	blk := oneTraceBlock(cfg, units.Um(2.7), units.Um(1500))
	sol, err := loop.SolveBlock(blk, 0, loopOpts(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-sol.L) / sol.L; !(rel <= 0.03) {
		t.Errorf("microstrip self lookup %g vs direct %g (rel %g)", got, sol.L, rel)
	}
}

func TestMutualSymmetryInWidths(t *testing.T) {
	set, err := BuildCtx(context.Background(), freeConfig(), smallAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := set.MutualL(units.Um(2), units.Um(8), units.Um(1.5), units.Um(1000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := set.MutualL(units.Um(8), units.Um(2), units.Um(1.5), units.Um(1000))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9*math.Abs(a) {
		t.Errorf("mutual not symmetric in widths: %g vs %g", a, b)
	}
}

func TestTableMonotoneTrends(t *testing.T) {
	set, err := BuildCtx(context.Background(), freeConfig(), smallAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Longer ⇒ more L.
	l1, _ := set.SelfL(units.Um(4), units.Um(500))
	l2, _ := set.SelfL(units.Um(4), units.Um(2000))
	if l2 <= l1 {
		t.Errorf("self L not increasing with length: %g then %g", l1, l2)
	}
	// Wider ⇒ less L.
	w1, _ := set.SelfL(units.Um(2), units.Um(1000))
	w2, _ := set.SelfL(units.Um(10), units.Um(1000))
	if w2 >= w1 {
		t.Errorf("self L not decreasing with width: %g then %g", w1, w2)
	}
	// Farther ⇒ less mutual.
	m1, _ := set.MutualL(units.Um(4), units.Um(4), units.Um(1), units.Um(1000))
	m2, _ := set.MutualL(units.Um(4), units.Um(4), units.Um(5), units.Um(1000))
	if m2 >= m1 {
		t.Errorf("mutual not decaying with spacing: %g then %g", m1, m2)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	set, err := BuildCtx(context.Background(), freeConfig(), smallAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.SaveV3(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Config.Name != set.Config.Name {
		t.Errorf("config name %q != %q", back.Config.Name, set.Config.Name)
	}
	// Identical lookups.
	for _, p := range []struct{ w, l float64 }{
		{units.Um(2.2), units.Um(800)},
		{units.Um(9), units.Um(5000)},
	} {
		a, err1 := set.SelfL(p.w, p.l)
		b, err2 := back.SelfL(p.w, p.l)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			t.Errorf("lookup drift after round trip: %g vs %g", a, b)
		}
	}
	m1, _ := set.MutualL(units.Um(3), units.Um(3), units.Um(2), units.Um(1000))
	m2, _ := back.MutualL(units.Um(3), units.Um(3), units.Um(2), units.Um(1000))
	if m1 != m2 {
		t.Errorf("mutual drift after round trip: %g vs %g", m1, m2)
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	set, err := BuildCtx(context.Background(), freeConfig(), Axes{
		Widths:   LogAxis(units.Um(1), units.Um(4), 2),
		Spacings: LogAxis(units.Um(1), units.Um(2), 2),
		Lengths:  LogAxis(units.Um(100), units.Um(1000), 3),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/set.rlct"
	if err := set.SaveFileV3(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Config.Thickness != set.Config.Thickness {
		t.Error("config drift after file round trip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Error("Load accepted garbage")
	}
	if _, err := Load(bytes.NewBufferString(`{"version": 99}`)); err == nil {
		t.Error("Load accepted unknown version")
	}
	if _, err := LoadFile("/nonexistent/x.json"); err == nil {
		t.Error("LoadFile accepted missing file")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := freeConfig()
	bad.Thickness = 0
	if _, err := BuildCtx(context.Background(), bad, smallAxes(), nil); err == nil {
		t.Error("Build accepted zero thickness")
	}
	bad = freeConfig()
	bad.Frequency = 0
	if _, err := BuildCtx(context.Background(), bad, smallAxes(), nil); err == nil {
		t.Error("Build accepted zero frequency")
	}
	bad = microstripConfig()
	bad.PlaneGap = 0
	if _, err := BuildCtx(context.Background(), bad, smallAxes(), nil); err == nil {
		t.Error("Build accepted microstrip without plane gap")
	}
}

func TestAxesValidation(t *testing.T) {
	ax := smallAxes()
	ax.Widths = []float64{units.Um(1)}
	if err := ax.Validate(); err == nil {
		t.Error("accepted single-point width axis")
	}
	ax = smallAxes()
	ax.Lengths[1] = ax.Lengths[0]
	if err := ax.Validate(); err == nil {
		t.Error("accepted non-increasing lengths")
	}
	ax = smallAxes()
	ax.Spacings[0] = -1
	if err := ax.Validate(); err == nil {
		t.Error("accepted negative spacing")
	}
}

func TestLookupArgumentValidation(t *testing.T) {
	set, err := BuildCtx(context.Background(), freeConfig(), Axes{
		Widths:   LogAxis(units.Um(1), units.Um(4), 2),
		Spacings: LogAxis(units.Um(1), units.Um(2), 2),
		Lengths:  LogAxis(units.Um(100), units.Um(1000), 3),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.SelfL(0, units.Um(100)); err == nil {
		t.Error("SelfL accepted zero width")
	}
	if _, err := set.MutualL(units.Um(1), units.Um(1), 0, units.Um(100)); err == nil {
		t.Error("MutualL accepted zero spacing")
	}
}

// Parallel builds must be bit-for-bit identical to serial builds:
// every entry is an independent solve written by index, so the worker
// count must not leak into the values.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	serial := freeConfig()
	serial.Workers = 1
	a, err := BuildCtx(context.Background(), serial, smallAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel := freeConfig()
	parallel.Workers = 8
	b, err := BuildCtx(context.Background(), parallel, smallAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Self.Vals {
		if b.Self.Vals[k] != v {
			t.Fatalf("self[%d]: serial %g != parallel %g", k, v, b.Self.Vals[k])
		}
	}
	for k, v := range a.Mutual.Vals {
		if b.Mutual.Vals[k] != v {
			t.Fatalf("mutual[%d]: serial %g != parallel %g", k, v, b.Mutual.Vals[k])
		}
	}
}

// The mutual_entries counter must reflect entries actually solved —
// the upper (w1 <= w2) triangle — not the mirrored full table.
func TestMutualEntriesCountsSolvesOnly(t *testing.T) {
	ents0 := tableMutEnts.Value()
	solves0 := tableSolves.Value()
	axes := smallAxes()
	if _, err := BuildCtx(context.Background(), freeConfig(), axes, nil); err != nil {
		t.Fatal(err)
	}
	nw, ns, nl := len(axes.Widths), len(axes.Spacings), len(axes.Lengths)
	upper := nw * (nw + 1) / 2 * ns * nl
	if got := tableMutEnts.Value() - ents0; got != int64(upper) {
		t.Errorf("mutual_entries += %d, want %d (upper triangle only)", got, upper)
	}
	wantSolves := int64(upper + nw*nl)
	if got := tableSolves.Value() - solves0; got != wantSolves {
		t.Errorf("solver_calls += %d, want %d", got, wantSolves)
	}
}

// A shared Set must serve concurrent lookups race-free (run under
// -race) and with values identical to a serial pass — the regression
// test for the lazily mutated spline cache.
func TestConcurrentLookups(t *testing.T) {
	set, err := BuildCtx(context.Background(), freeConfig(), smallAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	type probe struct {
		self        bool
		w, w2, s, l float64
	}
	probes := make([]probe, 48)
	want := make([]float64, len(probes))
	for i := range probes {
		f := float64(i)
		if i%2 == 0 {
			probes[i] = probe{self: true, w: units.Um(1 + f/8), l: units.Um(150 + 100*f)}
			want[i], err = set.SelfL(probes[i].w, probes[i].l)
		} else {
			probes[i] = probe{w: units.Um(1 + f/10), w2: units.Um(11 - f/10), s: units.Um(1 + f/16), l: units.Um(200 + 90*f)}
			want[i], err = set.MutualL(probes[i].w, probes[i].w2, probes[i].s, probes[i].l)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for rep := 0; rep < 150; rep++ {
				i := (seed*31 + rep) % len(probes)
				p := probes[i]
				var got float64
				var err error
				if p.self {
					got, err = set.SelfL(p.w, p.l)
				} else {
					got, err = set.MutualL(p.w, p.w2, p.s, p.l)
				}
				if err != nil {
					errs <- err
					return
				}
				if got != want[i] {
					errs <- fmt.Errorf("concurrent lookup drift at probe %d: %g vs %g", i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 137
		var hits [n]atomic.Int32
		if err := ParallelForCtx(context.Background(), n, workers, func(k int) error {
			hits[k].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for k := range hits {
			if got := hits[k].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, k, got)
			}
		}
	}
}

func TestParallelForPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := ParallelForCtx(context.Background(), 1000, 4, func(k int) error {
		ran.Add(1)
		if k == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The failure must stop the sweep well short of completion.
	if got := ran.Load(); got == 1000 {
		t.Error("error did not cancel remaining work")
	}
}

// Denser axes must monotonically shrink the worst off-grid error, and
// the default-ish density must sit below 1 %.
func TestGridDensityAblation(t *testing.T) {
	cfg := freeConfig()
	probeW := []float64{units.Um(1.6), units.Um(3.7), units.Um(8.9)}
	probeL := []float64{units.Um(260), units.Um(1900), units.Um(5100)}
	worst := func(nw, nl int) float64 {
		axes := Axes{
			Widths:   LogAxis(units.Um(1), units.Um(12), nw),
			Spacings: LogAxis(units.Um(0.8), units.Um(6), 3),
			Lengths:  LogAxis(units.Um(100), units.Um(6000), nl),
		}
		set, err := BuildCtx(context.Background(), cfg, axes, nil)
		if err != nil {
			t.Fatal(err)
		}
		var w float64
		for _, pw := range probeW {
			for _, pl := range probeL {
				got, err := set.SelfL(pw, pl)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := selfEntry(cfg.withDefaults(), pw, pl)
				if err != nil {
					t.Fatal(err)
				}
				if rel := math.Abs(got-ref) / ref; rel > w {
					w = rel
				}
			}
		}
		return w
	}
	coarse := worst(3, 4)
	medium := worst(4, 6)
	fine := worst(6, 9)
	if !(fine <= medium && medium <= coarse) {
		t.Errorf("interpolation error not shrinking with density: %g, %g, %g", coarse, medium, fine)
	}
	if medium > 0.01 {
		t.Errorf("medium-density worst error %g, want < 1%%", medium)
	}
}

func TestLookupClampCounting(t *testing.T) {
	set, err := BuildCtx(context.Background(), freeConfig(), smallAxes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ax := smallAxes()
	hits0 := lookupHits.Value()
	clamped0 := lookupClamped.Value()

	// In-range lookups count as hits only.
	if _, err := set.SelfL(units.Um(2), units.Um(500)); err != nil {
		t.Fatal(err)
	}
	if _, err := set.MutualL(units.Um(2), units.Um(2), units.Um(1), units.Um(500)); err != nil {
		t.Fatal(err)
	}
	if got := lookupHits.Value() - hits0; got != 2 {
		t.Errorf("in-range lookups: hits += %d, want 2", got)
	}
	if got := lookupClamped.Value() - clamped0; got != 0 {
		t.Errorf("in-range lookups: clamped += %d, want 0", got)
	}

	// A width beyond the axis and a spacing beyond the axis both count
	// as clamped (the spline extrapolates linearly there).
	hits0, clamped0 = lookupHits.Value(), lookupClamped.Value()
	if _, err := set.SelfL(2*ax.Widths[len(ax.Widths)-1], units.Um(500)); err != nil {
		t.Fatal(err)
	}
	if _, err := set.MutualL(units.Um(2), units.Um(2), 3*ax.Spacings[len(ax.Spacings)-1], units.Um(500)); err != nil {
		t.Fatal(err)
	}
	if got := lookupClamped.Value() - clamped0; got != 2 {
		t.Errorf("out-of-range lookups: clamped += %d, want 2", got)
	}
	if got := lookupHits.Value() - hits0; got != 0 {
		t.Errorf("out-of-range lookups: hits += %d, want 0", got)
	}
	if ClampedLookups() != lookupClamped.Value() {
		t.Errorf("ClampedLookups() = %d, counter = %d", ClampedLookups(), lookupClamped.Value())
	}
}
