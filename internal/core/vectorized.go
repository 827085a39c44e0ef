package core

// Vectorized extraction. Extractor.SegmentsRLCCtx feeds whole clocktrees
// through the table layer's batch lookups (table.Set.SelfLBatch /
// MutualLBatch): segments are grouped by shielding configuration, the
// four lookups of every loop composition are packed into two batch
// calls per group, and one spline contraction pass answers them all —
// deduping repeated geometries, which clock trees are made of. The
// composed values are bit-identical to the scalar loop (LoopLCtx per
// segment); only the constant factors change.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"clockrlc/internal/geom"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
	"clockrlc/internal/resist"
	"clockrlc/internal/table"
)

// Batch accounting: runs, segments extracted through the batch path,
// and accumulated wall time (throughput = batch_segments /
// batch_ns·1e9).
var (
	batchRuns     = obs.GetCounter("core.batch_runs")
	batchSegments = obs.GetCounter("core.batch_segments")
	batchNs       = obs.GetCounter("core.batch_ns")
)

// LoopLBatchCtx composes the loop inductance of every segment through
// the batch lookup path, returning henries in input order. Values are
// bit-identical to calling LoopLCtx per segment; the first failing
// segment (in input order within its shielding group) stops the batch
// with an error naming it. The context carries tracing lineage only;
// lookups are pure reads and are not cancelled.
func (e *Extractor) LoopLBatchCtx(ctx context.Context, segs []Segment) ([]float64, error) {
	for i, s := range segs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: segment %d: %w", i, err)
		}
	}
	out := make([]float64, len(segs))
	if si, err := e.loopLBatchInto(ctx, segs, out); err != nil {
		return nil, fmt.Errorf("core: segment %d: %w", si, err)
	}
	return out, nil
}

// loopLBatchInto composes loop inductances for pre-validated segments
// into out (len(out) == len(segs)). On failure it returns the index of
// the offending segment and the same error the scalar path would have
// produced for it.
func (e *Extractor) loopLBatchInto(ctx context.Context, segs []Segment, out []float64) (int, error) {
	if len(segs) == 0 {
		return 0, nil
	}
	_, sp := e.observer().StartCtx(ctx, "table.lookup")
	defer sp.End()
	sp.SetAttr("batch", len(segs))
	loopCompositions.Add(int64(len(segs)))

	// Group segments by shielding configuration, preserving input order
	// within each group — each group shares one table set and batches
	// its lookups together.
	type group struct {
		set  *table.Set
		idxs []int
	}
	var order []geom.Shielding
	groups := map[geom.Shielding]*group{}
	for i, s := range segs {
		g, ok := groups[s.Shielding]
		if !ok {
			set, err := e.Tables(s.Shielding)
			if err != nil {
				return i, err
			}
			g = &group{set: set}
			groups[s.Shielding] = g
			order = append(order, s.Shielding)
		}
		g.idxs = append(g.idxs, i)
	}

	eng := e.checkEngine()
	armed := eng.Armed()
	for _, sh := range order {
		g := groups[sh]
		m := len(g.idxs)
		// Two self queries per segment — (SignalWidth, Length) then
		// (GroundWidth, Length) — and two mutual queries — signal↔ground
		// at Spacing, then ground↔ground across the signal trace —
		// exactly the four lookups LoopLCtx issues, in the same order.
		sw := make([]float64, 2*m)
		sl := make([]float64, 2*m)
		selfOut := make([]float64, 2*m)
		mw1 := make([]float64, 2*m)
		mw2 := make([]float64, 2*m)
		msp := make([]float64, 2*m)
		mln := make([]float64, 2*m)
		mutOut := make([]float64, 2*m)
		for j, si := range g.idxs {
			s := segs[si]
			sw[2*j], sl[2*j] = s.SignalWidth, s.Length
			sw[2*j+1], sl[2*j+1] = s.GroundWidth, s.Length
			mw1[2*j], mw2[2*j], msp[2*j], mln[2*j] = s.SignalWidth, s.GroundWidth, s.Spacing, s.Length
			// Ground-to-ground spacing across the signal trace.
			sgg := 2*s.Spacing + s.SignalWidth
			mw1[2*j+1], mw2[2*j+1], msp[2*j+1], mln[2*j+1] = s.GroundWidth, s.GroundWidth, sgg, s.Length
		}
		if err := g.set.SelfLBatch(sw, sl, selfOut); err != nil {
			return batchQuerySegment(g.idxs, err)
		}
		if err := g.set.MutualLBatch(mw1, mw2, msp, mln, mutOut); err != nil {
			return batchQuerySegment(g.idxs, err)
		}
		for j, si := range g.idxs {
			s := segs[si]
			ls, lg := selfOut[2*j], selfOut[2*j+1]
			msg, mgg := mutOut[2*j], mutOut[2*j+1]
			var lloop float64
			if s.Shielding == geom.ShieldNone {
				lloop = ls + (lg+mgg)/2 - 2*msg
			} else {
				lloop = ls - 2*msg*msg/(lg+mgg)
			}
			if armed {
				if err := checkLoopComposition(eng, s, ls, lg, msg, mgg, lloop); err != nil {
					return si, err
				}
			}
			out[si] = lloop
		}
	}
	return 0, nil
}

// batchQuerySegment maps a table batch-lookup failure back to the
// segment that issued the failing query (two queries per segment) and
// unwraps the *table.BatchError so the surfaced error matches what the
// scalar lookup would have returned for that segment.
func batchQuerySegment(idxs []int, err error) (int, error) {
	var be *table.BatchError
	if errors.As(err, &be) {
		if si := be.Index / 2; si < len(idxs) {
			return idxs[si], be.Err
		}
	}
	if len(idxs) > 0 {
		return idxs[0], err
	}
	return 0, err
}

// SegmentsRLCCtx extracts a batch of segments: R and C per segment on
// a GOMAXPROCS-wide worker pool (both are per-segment
// analytic/field-model work), then every loop inductance through the
// table layer's batch lookups (one spline contraction pass per
// shielding group, repeated geometries deduped). Results are
// bit-identical to a serial loop over SegmentRLCCtx, in input order;
// the first failing segment stops the batch, identified by its index,
// and a segment panicking in the R/C phase surfaces as a
// *table.CellPanic. A cancelled ctx stops the R/C worker phase and
// returns ctx.Err(); the lookup phase is pure reads and runs to
// completion. Progress is observable
// through the core.batch_* counters.
func (e *Extractor) SegmentsRLCCtx(ctx context.Context, segs []Segment) ([]netlist.SegmentRLC, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := e.observer().StartCtx(ctx, "core.batch")
	sp.SetAttr("segments", len(segs))
	defer sp.End()
	t0 := time.Now()
	defer func() {
		batchRuns.Inc()
		batchNs.Add(time.Since(t0).Nanoseconds())
	}()
	out := make([]netlist.SegmentRLC, len(segs))
	if len(segs) == 0 {
		return out, nil
	}
	// Gate every segment's geometry up front, in input order, so the
	// first invalid segment is named deterministically.
	for i, s := range segs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: batch segment %d: %w", i, err)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	sp.SetAttr("workers", workers)
	err := table.ParallelForCtx(ctx, len(segs), workers, func(k int) error {
		s := segs[k]
		r, err := resist.ACSkinArea(s.Length, s.SignalWidth, e.Tech.Thickness, e.Tech.Rho, e.Frequency)
		if err != nil {
			return fmt.Errorf("core: batch segment %d: %w", k, err)
		}
		c, err := e.SegmentCap(s)
		if err != nil {
			return fmt.Errorf("core: batch segment %d: %w", k, err)
		}
		out[k].R, out[k].C = r, c
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ls := make([]float64, len(segs))
	if si, lerr := e.loopLBatchInto(ctx, segs, ls); lerr != nil {
		return nil, fmt.Errorf("core: batch segment %d: %w", si, lerr)
	}
	for i := range out {
		out[i].L = ls[i]
		if err := out[i].Validate(); err != nil {
			return nil, fmt.Errorf("core: batch segment %d: core: extracted values unphysical: %w", i, err)
		}
	}
	segmentsExtracted.Add(int64(len(segs)))
	batchSegments.Add(int64(len(segs)))
	return out, nil
}
