package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"clockrlc/internal/serve"
	"clockrlc/internal/spline"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// heldOutSeed is a seed no workload was tuned on.
const heldOutSeed = 90210

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	if !reflect.DeepEqual(treeLoads(3, 256), treeLoads(3, 256)) {
		t.Error("treeLoads differs between calls with one seed")
	}
	if reflect.DeepEqual(treeLoads(3, 256), treeLoads(4, 256)) {
		t.Error("treeLoads ignores the seed")
	}
	distinct := map[float64]bool{}
	for _, v := range treeLoads(3, 256) {
		distinct[v] = true
	}
	if len(distinct) != 256 {
		t.Errorf("treeLoads gave %d distinct loads of 256; leaf stages would dedup", len(distinct))
	}
	if jitteredTech(3) != jitteredTech(3) || jitteredTech(3) == jitteredTech(4) {
		t.Error("jitteredTech is not a function of the seed alone")
	}
	a := randomBatch(rand.New(rand.NewSource(3)), 64)
	b := randomBatch(rand.New(rand.NewSource(3)), 64)
	if !reflect.DeepEqual(a, b) {
		t.Error("randomBatch differs between calls with one seed")
	}
	ax := table.DefaultAxes()
	in := func(v float64, axis []float64) bool { return v >= axis[0] && v <= axis[len(axis)-1] }
	for _, s := range coreSegments(randomBatch(rand.New(rand.NewSource(5)), 4096).Segments) {
		sgg := 2*s.Spacing + s.SignalWidth
		if !in(s.SignalWidth, ax.Widths) || !in(s.GroundWidth, ax.Widths) || !in(s.Spacing, ax.Spacings) ||
			!in(sgg, ax.Spacings) || !in(s.Length, ax.Lengths) {
			t.Fatalf("segment %+v leaves the default axes", s)
		}
	}
}

func TestTreeHeldOutSeedRunsCleanAndCheckCatchesCorruption(t *testing.T) {
	ctx := context.Background()
	j, err := newTreeJob(ctx, heldOutSeed, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ps passStats
	if err := j.pass(ctx, &ps); err != nil {
		t.Fatal(err)
	}
	if _, bad := j.verify(ctx); len(bad) != 0 || ps.failed != 0 {
		t.Fatalf("held-out seed: %d failed operations, mismatches %v", ps.failed, bad)
	}
	o := j.outs[0]
	g := &treeGolden{RelTol: 1e-6,
		RC:  golden{SkewS: o.rc.Max - o.rc.Min, MeanS: o.rc.Mean()},
		RLC: golden{SkewS: o.rlc.Max - o.rlc.Min, MeanS: o.rlc.Mean()}}
	if _, bad := checkTree(j.outs, j.leaves(), g); len(bad) != 0 {
		t.Fatalf("outputs fail their own golden: %v", bad)
	}
	corrupt := map[string]func(o *treeOutput, g *treeGolden){
		"nan arrival":    func(o *treeOutput, _ *treeGolden) { o.rlc.Max = math.NaN() },
		"missing leaf":   func(o *treeOutput, _ *treeGolden) { o.rc.Leaves-- },
		"rlc not slower": func(o *treeOutput, _ *treeGolden) { o.rlc.Sum = o.rc.Sum * 0.99 },
		"violation":      func(o *treeOutput, _ *treeGolden) { o.violations = 1 },
		"skew off":       func(_ *treeOutput, g *treeGolden) { g.RLC.SkewS *= 1.001 },
	}
	for name, fn := range corrupt {
		o, gc := j.outs[0], *g
		fn(&o, &gc)
		if _, bad := checkTree([]treeOutput{o}, j.leaves(), &gc); len(bad) == 0 {
			t.Errorf("%s: check passed a corrupted output", name)
		}
	}
}

func TestCharacterizeHeldOutSeedRunsCleanAndCheckCatchesCorruption(t *testing.T) {
	ctx := context.Background()
	um := units.Um
	axes := table.Axes{
		Widths:   []float64{um(1), um(4)},
		Spacings: []float64{um(1), um(4)},
		Lengths:  []float64{um(100), um(1000)},
	}
	j, err := newCharJob(ctx, heldOutSeed, t.TempDir(), axes)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	var ps passStats
	if err := j.pass(ctx, &ps); err != nil {
		t.Fatal(err)
	}
	if _, bad := j.verify(ctx); len(bad) != 0 || ps.failed != 0 || len(j.passes[0]) != 6 {
		t.Fatalf("held-out seed: %d failed, %d sets, mismatches %v", ps.failed, len(j.passes[0]), bad)
	}
	// A reopened set that differs from the built one in one bit.
	rec := j.passes[0][1]
	flipped := perturbed(t, rec.built, func(v []float64) { v[0] = math.Nextafter(v[0], math.Inf(1)) })
	bad := [][]charRecord{{{cfg: rec.cfg, built: rec.built, loaded: flipped}}}
	if _, mm := checkCharacterize(ctx, bad, heldOutSeed); len(mm) == 0 {
		t.Error("check passed a save→load bit flip")
	}
	// Built and reopened agree, but no grid value is the solver's.
	scaled := perturbed(t, rec.built, func(v []float64) {
		for i := range v {
			v[i] *= 1 + 1e-9
		}
	})
	bad = [][]charRecord{{{cfg: rec.cfg, built: scaled, loaded: scaled}}}
	if _, mm := checkCharacterize(ctx, bad, heldOutSeed); len(mm) == 0 {
		t.Error("check passed grid values a rebuild does not reproduce")
	}
}

// perturbed copies s with fn applied to its mutual table values.
func perturbed(t *testing.T, s *table.Set, fn func([]float64)) *table.Set {
	t.Helper()
	vals := append([]float64(nil), s.Mutual.Vals...)
	fn(vals)
	g, err := spline.NewGrid(s.Mutual.Axes, vals)
	if err != nil {
		t.Fatal(err)
	}
	cp := *s
	cp.Mutual = g
	return &cp
}

func TestServeHeldOutSeedRunsCleanAndCheckCatchesCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("builds microstrip tables")
	}
	ctx := context.Background()
	j, err := newServeJob(ctx, heldOutSeed, t.TempDir(), serveShape{batch: 4, requests: 80, maxSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	var ps passStats
	if err := j.pass(ctx, &ps); err != nil {
		t.Fatal(err)
	}
	if checked, bad := j.verify(ctx); len(bad) != 0 || ps.failed != 0 || checked != 2 {
		t.Fatalf("held-out seed: %d failed, %d checked, mismatches %v", ps.failed, checked, bad)
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(j.samples[0].body, &resp); err != nil {
		t.Fatal(err)
	}
	resp.Results[0].LH = math.Nextafter(resp.Results[0].LH, 0)
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	j.samples[0].body = body
	if _, bad := j.verify(ctx); len(bad) != 1 {
		t.Errorf("check reported %d mismatches for one corrupted response, want 1", len(bad))
	}
}
