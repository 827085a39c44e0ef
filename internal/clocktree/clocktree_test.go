package clocktree

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

const fsig = 3.2e9

var (
	extOnce sync.Once
	extOne  *core.Extractor
	extErr  error
)

// sharedExtractor builds one extractor for all tests in the package
// (table build dominates setup time).
func sharedExtractor(t *testing.T) *core.Extractor {
	t.Helper()
	extOnce.Do(func() {
		tech := core.Technology{
			Thickness:      units.Um(2),
			Rho:            units.RhoCopper,
			EpsRel:         units.EpsSiO2,
			CapHeight:      units.Um(2),
			PlaneGap:       units.Um(2),
			PlaneThickness: units.Um(1),
		}
		axes := table.Axes{
			Widths:   table.LogAxis(units.Um(1), units.Um(12), 4),
			Spacings: table.LogAxis(units.Um(0.8), units.Um(22), 6),
			Lengths:  table.LogAxis(units.Um(100), units.Um(6000), 6),
		}
		extOne, extErr = core.NewExtractorCtx(context.Background(), tech, fsig, axes, nil)
	})
	if extErr != nil {
		t.Fatal(extErr)
	}
	return extOne
}

func testSegment() core.Segment {
	return core.Segment{
		SignalWidth: units.Um(10),
		GroundWidth: units.Um(5),
		Spacing:     units.Um(1),
		Shielding:   geom.ShieldNone,
	}
}

func testBuffer() Buffer {
	return Buffer{
		DriveRes:       40,
		InputCap:       40e-15,
		IntrinsicDelay: 30e-12,
		OutSlew:        100e-12,
	}
}

func testTree(t *testing.T, levels int) *Tree {
	t.Helper()
	tr, err := NewTree(
		HTreeLevels(units.Um(4000), levels, testSegment()),
		testBuffer(), sharedExtractor(t))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestHTreeLevelsHalving(t *testing.T) {
	lv := HTreeLevels(units.Um(4000), 3, testSegment())
	if len(lv) != 3 {
		t.Fatalf("levels = %d", len(lv))
	}
	for i, l := range lv {
		wantTrunk := units.Um(4000) / math.Pow(2, float64(i))
		if math.Abs(l.TrunkLen-wantTrunk) > 1e-15 {
			t.Errorf("level %d trunk = %g, want %g", i, l.TrunkLen, wantTrunk)
		}
		if math.Abs(l.ArmLen-wantTrunk/2) > 1e-15 {
			t.Errorf("level %d arm = %g, want %g", i, l.ArmLen, wantTrunk/2)
		}
	}
}

func TestSymmetricTreeHasZeroSkew(t *testing.T) {
	tr := testTree(t, 2)
	arr, err := tr.ArrivalsCtx(context.Background(), SimOptions{WithL: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 16 {
		t.Fatalf("leaf count = %d, want 16", len(arr))
	}
	s, _, _ := skewOf(arr)
	if s > 1e-15 {
		t.Errorf("symmetric tree skew = %g, want ~0", s)
	}
	if arr[0] <= 0 {
		t.Errorf("arrival = %g, want > 0", arr[0])
	}
}

func skewOf(arr []float64) (float64, int, int) {
	mn, mx := 0, 0
	for i, a := range arr {
		if a < arr[mn] {
			mn = i
		}
		if a > arr[mx] {
			mx = i
		}
	}
	return arr[mx] - arr[mn], mn, mx
}

func TestInductanceIncreasesStageDelay(t *testing.T) {
	tr := testTree(t, 1)
	rc, err := tr.ArrivalsCtx(context.Background(), SimOptions{WithL: false})
	if err != nil {
		t.Fatal(err)
	}
	rlc, err := tr.ArrivalsCtx(context.Background(), SimOptions{WithL: true})
	if err != nil {
		t.Fatal(err)
	}
	// The Fig. 2/3 observation: including L increases the arrival
	// time for this strongly-driven, wide-wire configuration.
	if rlc[0] <= rc[0] {
		t.Errorf("RLC arrival %g not above RC arrival %g", rlc[0], rc[0])
	}
	ratio := rlc[0] / rc[0]
	if ratio < 1.02 || ratio > 2.5 {
		t.Errorf("RLC/RC arrival ratio = %g, expect the paper's 1.1–2× band", ratio)
	}
}

func TestSkewWithLoadImbalance(t *testing.T) {
	tr := testTree(t, 1)
	// Leaf 0 carries 4× input load (fan-out difference).
	opts := SimOptions{WithL: false, LeafLoadScale: map[int]float64{0: 4}}
	repRC, err := tr.SkewReportCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.WithL = true
	repRLC, err := tr.SkewReportCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	skewRC, skewRLC := repRC.Skew, repRLC.Skew
	if skewRC <= 0 || skewRLC <= 0 {
		t.Fatalf("degenerate skews: rc=%g rlc=%g", skewRC, skewRLC)
	}
	// Section V: ignoring inductance misestimates skew by > 10 %.
	diff := math.Abs(skewRLC-skewRC) / skewRLC
	if diff < 0.05 {
		t.Errorf("skew difference RC vs RLC only %.1f%% (rc=%g, rlc=%g); paper reports >10%%",
			diff*100, skewRC, skewRLC)
	}
}

func TestScalePerturbsArrivals(t *testing.T) {
	tr := testTree(t, 1)
	nom, err := tr.ArrivalsCtx(context.Background(), SimOptions{WithL: true})
	if err != nil {
		t.Fatal(err)
	}
	pert, err := tr.ArrivalsCtx(context.Background(), SimOptions{
		WithL: true,
		Scale: map[int][3]float64{0: {1.3, 1.3, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(pert[0] > nom[0]) {
		t.Errorf("30%% RC increase did not slow the stage: %g vs %g", pert[0], nom[0])
	}
}

func TestNewTreeValidation(t *testing.T) {
	ext := sharedExtractor(t)
	for _, n := range []int{0, -1, -1 << 40} {
		lv := HTreeLevels(units.Um(1000), n, testSegment())
		if len(lv) != 0 {
			t.Errorf("HTreeLevels(%d) returned %d levels", n, len(lv))
		}
		if _, err := NewTree(lv, testBuffer(), ext); !errors.Is(err, ErrNoLevels) {
			t.Errorf("NewTree(HTreeLevels(%d)) = %v, want ErrNoLevels", n, err)
		}
	}
	if _, err := NewTree(HTreeLevels(units.Um(1000), 1, testSegment()), Buffer{}, ext); err == nil {
		t.Error("accepted zero buffer")
	}
	if _, err := NewTree(HTreeLevels(units.Um(1000), 1, testSegment()), testBuffer(), nil); err == nil {
		t.Error("accepted nil extractor")
	}
	bad := HTreeLevels(units.Um(1000), 1, testSegment())
	bad[0].TrunkLen = 0
	if _, err := NewTree(bad, testBuffer(), ext); err == nil {
		t.Error("accepted zero trunk")
	}
	seg := testSegment()
	seg.SignalWidth = 0
	if _, err := NewTree(HTreeLevels(units.Um(1000), 1, seg), testBuffer(), ext); err == nil {
		t.Error("accepted bad segment profile")
	}
}

// Non-finite buffer fields used to slip past the sign comparisons: a
// NaN IntrinsicDelay gave a NaN skew with a nil error, and a NaN
// DriveRes surfaced as a "singular DC operating point". Each is now
// refused by NewTree with an error naming the field; so is a non-finite
// arm length, and a tree deeper than the walk can index.
func TestNewTreeRejectsNonFinite(t *testing.T) {
	ext := sharedExtractor(t)
	for _, tc := range []struct {
		field string
		set   func(*Buffer, float64)
	}{
		{"DriveRes", func(b *Buffer, v float64) { b.DriveRes = v }},
		{"InputCap", func(b *Buffer, v float64) { b.InputCap = v }},
		{"IntrinsicDelay", func(b *Buffer, v float64) { b.IntrinsicDelay = v }},
		{"OutSlew", func(b *Buffer, v float64) { b.OutSlew = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			buf := testBuffer()
			tc.set(&buf, v)
			_, err := NewTree(HTreeLevels(units.Um(1000), 1, testSegment()), buf, ext)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s = %v: NewTree = %v, want an error naming %s", tc.field, v, err, tc.field)
			}
		}
	}
	lv := HTreeLevels(units.Um(1000), 1, testSegment())
	lv[0].ArmLen = math.NaN()
	if _, err := NewTree(lv, testBuffer(), ext); err == nil {
		t.Error("accepted a NaN arm length")
	}
	if lv := HTreeLevels(units.Um(1000), 1<<40, testSegment()); len(lv) != maxLevels+1 {
		t.Errorf("HTreeLevels(1<<40) returned %d levels, want %d", len(lv), maxLevels+1)
	} else if _, err := NewTree(lv, testBuffer(), ext); err == nil {
		t.Error("accepted a tree deeper than the walk can index")
	}
}
