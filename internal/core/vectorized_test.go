package core

// Tests for the vectorized extraction path: bit-identity against the
// scalar loop (the batch lookups share the spline contraction kernel,
// so nothing may drift), error attribution by segment index, and
// cancellation.

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// mixedBatchSegs builds n segments cycling through a handful of
// distinct geometries across both shielding configurations — the
// repeated-geometry shape of a real clock tree.
func mixedBatchSegs(n int) []Segment {
	base := []Segment{
		fig1Segment(),
		{Length: units.Um(900), SignalWidth: units.Um(3), GroundWidth: units.Um(2),
			Spacing: units.Um(1.5), Shielding: geom.ShieldNone},
		{Length: units.Um(2500), SignalWidth: units.Um(6), GroundWidth: units.Um(4),
			Spacing: units.Um(2), Shielding: geom.ShieldMicrostrip},
		{Length: units.Um(400), SignalWidth: units.Um(1.8), GroundWidth: units.Um(1.8),
			Spacing: units.Um(1.1), Shielding: geom.ShieldMicrostrip},
	}
	segs := make([]Segment, n)
	for i := range segs {
		segs[i] = base[i%len(base)]
	}
	return segs
}

// TestSegmentsRLCVectorizedBitIdentical: the vectorized batch path
// returns bit-for-bit what a serial loop over SegmentRLC returns, in
// input order, across mixed shielding groups and repeated geometries.
func TestSegmentsRLCVectorizedBitIdentical(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone, geom.ShieldMicrostrip})
	segs := mixedBatchSegs(37)
	got, err := e.SegmentsRLCCtx(context.Background(), segs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(segs) {
		t.Fatalf("%d results for %d segments", len(got), len(segs))
	}
	for i, s := range segs {
		want, err := e.SegmentRLCCtx(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i].R) != math.Float64bits(want.R) ||
			math.Float64bits(got[i].L) != math.Float64bits(want.L) ||
			math.Float64bits(got[i].C) != math.Float64bits(want.C) {
			t.Fatalf("segment %d drifted: got (%v, %v, %v), want (%v, %v, %v)",
				i, got[i].R, got[i].L, got[i].C, want.R, want.L, want.C)
		}
	}
}

// TestLoopLBatchMatchesLoopL: the exported batch composition is
// bit-identical to per-segment LoopL.
func TestLoopLBatchMatchesLoopL(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone, geom.ShieldMicrostrip})
	segs := mixedBatchSegs(12)
	got, err := e.LoopLBatchCtx(context.Background(), segs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range segs {
		want, err := e.LoopLCtx(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("segment %d: batch %v != scalar %v (bitwise)", i, got[i], want)
		}
	}
	// Empty batches are fine.
	if out, err := e.LoopLBatchCtx(context.Background(), nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(out))
	}
}

// TestLoopLBatchNamesFailingSegment: lookup failures surface the
// scalar error, attributed to the right segment of the batch.
func TestLoopLBatchNamesFailingSegment(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	set, err := e.Tables(geom.ShieldNone)
	if err != nil {
		t.Fatal(err)
	}
	set.Lookup = table.LookupError
	defer func() { set.Lookup = table.LookupExtrapolate }()

	segs := []Segment{fig1Segment(), fig1Segment(), fig1Segment()}
	segs[2].SignalWidth = units.Um(80) // far beyond the 12 µm width axis
	_, err = e.LoopLBatchCtx(context.Background(), segs)
	if !errors.Is(err, table.ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if !strings.Contains(err.Error(), "segment 2") {
		t.Errorf("error %q does not name the failing segment", err)
	}
	// Geometry failures are named too, before any lookup runs.
	segs[2] = fig1Segment()
	segs[0].Length = -1
	if _, err := e.LoopLBatchCtx(context.Background(), segs); !errors.Is(err, ErrBadGeometry) || !strings.Contains(err.Error(), "segment 0") {
		t.Errorf("invalid geometry: got %v, want ErrBadGeometry naming segment 0", err)
	}
}

// TestSegmentsRLCVectorizedLookupErrorNamesSegment: the full batch
// path attributes an out-of-range lookup to its segment.
func TestSegmentsRLCVectorizedLookupErrorNamesSegment(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	set, err := e.Tables(geom.ShieldNone)
	if err != nil {
		t.Fatal(err)
	}
	set.Lookup = table.LookupError
	defer func() { set.Lookup = table.LookupExtrapolate }()

	segs := mixedBatchSegs(4)
	for i := range segs {
		segs[i].Shielding = geom.ShieldNone
	}
	segs[3].SignalWidth = units.Um(80)
	_, err = e.SegmentsRLCCtx(context.Background(), segs)
	if !errors.Is(err, table.ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if !strings.Contains(err.Error(), "batch segment 3") {
		t.Errorf("error %q does not name the failing segment", err)
	}
}

// TestSegmentsRLCVectorizedCancellation: a pre-cancelled context stops
// the batch with ctx.Err().
func TestSegmentsRLCVectorizedCancellation(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.SegmentsRLCCtx(ctx, mixedBatchSegs(8)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestSegmentsRLCVectorizedSpan: the batch span parents one
// table.lookup span per batch (not per segment).
func TestSegmentsRLCVectorizedSpan(t *testing.T) {
	mem := &obs.MemorySink{}
	o := obs.New(mem)
	e, err := NewExtractorCtx(context.Background(), testTech(), fsig, testAxes(),
		[]geom.Shielding{geom.ShieldNone}, WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	segs := batchSegs(6)
	if _, err := e.SegmentsRLCCtx(context.Background(), segs); err != nil {
		t.Fatal(err)
	}
	var batchID uint64
	lookups := 0
	for _, ev := range mem.Events() {
		switch {
		case ev.Type == obs.EventSpanStart && ev.Name == "core.batch":
			batchID = ev.Span
		case ev.Type == obs.EventSpanStart && ev.Name == "table.lookup":
			lookups++
			if ev.Parent != batchID {
				t.Errorf("table.lookup parent = %d, want core.batch span %d", ev.Parent, batchID)
			}
		}
	}
	if lookups != 1 {
		t.Errorf("%d table.lookup spans for one batch, want 1", lookups)
	}
}
