// Streaming tree analysis: a depth-first walk over the stage tree
// that keeps O(levels) state instead of O(4^levels), memoizes
// identical stage instances so a nominal million-sink tree costs ~10
// transients, and (optionally) checkpoints its exact position so a
// SIGKILL resumes instead of restarting.
//
// Bit-identity with the legacy breadth-first walk is load-bearing and
// rests on three facts, each pinned by a test:
//
//  1. Stage ids use heap numbering — stage k's children are
//     4k+1..4k+4 — which reproduces the BFS sequential ids, so
//     SimOptions.Scale keys mean the same stages.
//  2. A depth-first pre-order visits the leaf stages left to right,
//     which is exactly the order BFS pops them, so leaves are
//     observed (and, for ArrivalsCtx, appended) in the same order
//     with the same float operations.
//  3. Identical inputs give bit-identical transients, so replacing a
//     duplicate simulation with a memoized result cannot change any
//     arrival; SimOptions.NoStageDedup forces the exact walk to prove
//     it.

package clocktree

import (
	"context"
	"fmt"
	"math"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/ckpt"
	"clockrlc/internal/obs"
)

var (
	stagesDeduped = obs.GetCounter("clocktree.stages_deduped")
	// ckptResumes counts checkpoints that actually seeded a walk (the
	// store counts saves/corruption; resuming is the walker's act).
	ckptResumes = obs.GetCounter("ckpt.resumes")
	// ckptSaveFails counts checkpoint saves that failed and were
	// degraded past (the job keeps running; it just risks redoing work
	// after a crash).
	ckptSaveFails = obs.GetCounter("clocktree.ckpt_save_failures")
	// ckptCorruptState counts checkpoints whose record validated but
	// whose payload failed to decode as walker state. Shares the name
	// of the store's counter on purpose: both are "a checkpoint existed
	// and could not be trusted".
	ckptCorruptState = obs.GetCounter("ckpt.corrupt")
)

// histBuckets is the fixed size of ArrivalStats.Hist: 12 decades from
// 1e-13 s at 8 buckets per decade, spanning everything from
// sub-picosecond repeater stages to absurd microsecond arrivals.
const histBuckets = 96

// ArrivalStats is the bounded-memory summary AnalyzeCtx produces in
// place of the 4^levels arrivals slice. All fields accumulate in leaf
// H-order, so a checkpointed-and-resumed run produces bit-identical
// values to an uninterrupted one.
type ArrivalStats struct {
	// Leaves observed so far (4^levels when the walk completed).
	Leaves int64
	// Min/Max arrival in seconds, with the H-order indices of the
	// leaves that set them (first occurrence on ties — the same
	// semantics as sim.Skew over the full slice).
	Min, Max         float64
	MinLeaf, MaxLeaf int64
	// Sum and SumSq accumulate Σat and Σat² for mean and variance.
	Sum, SumSq float64
	// Hist is a log-scale arrival histogram: bucket
	// ⌊(log10(at)+13)·8⌋ clamped to [0, 95] — 8 buckets per decade
	// from 1e-13 s. Non-positive arrivals land in bucket 0.
	Hist [histBuckets]int64
	// Sample is a deterministic reservoir of at most
	// SimOptions.SampleCap raw arrivals — the same leaves are kept
	// regardless of checkpoint/resume schedule.
	Sample []float64
	// StagesSimulated and StagesDeduped split the stage-instance count
	// into transients actually run and memo hits.
	StagesSimulated, StagesDeduped int64
	// ResumedSeq is the checkpoint sequence number this run resumed
	// from (0 = cold start).
	ResumedSeq uint64
}

// Mean returns the mean arrival in seconds (0 before any leaf).
func (s *ArrivalStats) Mean() float64 {
	if s.Leaves == 0 {
		return 0
	}
	return s.Sum / float64(s.Leaves)
}

// SkewReport reduces the stats to the named-extremes skew report.
func (s *ArrivalStats) SkewReport() SkewReport {
	return SkewReport{
		Skew:       s.Max - s.Min,
		MinArrival: s.Min,
		MaxArrival: s.Max,
		MinLeaf:    s.MinLeaf,
		MaxLeaf:    s.MaxLeaf,
		Leaves:     s.Leaves,
	}
}

// histBucket maps an arrival to its histogram bucket. The !(at > 0)
// form routes NaN (never produced by a healthy sim, but a checkpoint
// is untrusted input) to bucket 0 instead of an undefined conversion.
func histBucket(at float64) int {
	if !(at > 0) {
		return 0
	}
	b := int(math.Floor((math.Log10(at) + 13) * 8))
	if b < 0 {
		return 0
	}
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// splitmix64 is the reservoir's deterministic position source: a pure
// function of the leaf ordinal, so the kept sample is identical at
// any checkpoint/resume schedule (same mixer as internal/fault).
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Checkpoint configures durable progress saving for AnalyzeCtx.
type Checkpoint struct {
	// Store is the job-keyed store to save into; its key must match
	// the tree/options job key (use Tree.OpenCheckpoint).
	Store *ckpt.Store
	// EveryStages saves after this many newly *simulated* stages
	// (default 16). Memo hits are arithmetic and don't trigger saves
	// on their own; the time trigger covers long dedup-only phases.
	EveryStages int
	// Every saves after this much wall time even if no stage was
	// simulated (default 30s; the walk checks the clock every few
	// hundred visits, so this is approximate).
	Every time.Duration
	// Resume loads the newest valid checkpoint before walking. A
	// corrupt, missing, or wrong-job checkpoint degrades to a cold
	// start — never a wrong answer.
	Resume bool
}

func (c *Checkpoint) everyStages() int {
	if c.EveryStages <= 0 {
		return 16
	}
	return c.EveryStages
}

func (c *Checkpoint) every() time.Duration {
	if c.Every <= 0 {
		return 30 * time.Second
	}
	return c.Every
}

// stageSig is everything a stage transient's result depends on beyond
// the tree itself: the level (geometry), the per-stage RCL scale
// perturbation, and the four sink load multipliers. Two stage
// instances with equal signatures simulate bit-identically.
type stageSig struct {
	level int32
	scale [3]float64
	loads [4]float64
}

// frame is one level of the depth-first walk: a stage whose four sink
// delays are known and whose subtrees are being visited. next is the
// first unvisited sink (4 = done). base is the H-order index of the
// first leaf under this stage's subtree.
type frame struct {
	level   int32
	next    int32
	id      int64
	base    int64
	arrival float64
	delays  [4]float64
}

// walker is the streaming walk's full state. Everything here (minus
// the derived fields) round-trips through the checkpoint codec in
// state.go.
type walker struct {
	tree *Tree
	opts SimOptions
	// levels and childLeaves are derived: childLeaves[l] is the leaf
	// count of one child subtree of a level-l stage, 4^(levels−l−1).
	levels      int
	childLeaves []int64

	memo  map[stageSig][4]float64
	stack []frame
	stats ArrivalStats

	// observed counts leaves seen by *this process* (a resumed run
	// inherits stats.Leaves but not observed) for the metrics counter.
	observed int64
}

// stageDelays returns the four sink delays of a stage instance,
// simulating on a memo miss.
func (w *walker) stageDelays(ctx context.Context, level int, id int64, base int64) ([4]float64, error) {
	scale := nominalScale
	if sc, ok := w.opts.Scale[int(id)]; ok {
		scale = sc
	}
	loads := nominalLoads
	if level == w.levels-1 && len(w.opts.LeafLoadScale) > 0 {
		for i := 0; i < 4; i++ {
			if sc, ok := w.opts.LeafLoadScale[int(base)+i]; ok {
				loads[i] = sc
			}
		}
	}
	sig := stageSig{level: int32(level), scale: scale, loads: loads}
	if !w.opts.NoStageDedup {
		if d, ok := w.memo[sig]; ok {
			w.stats.StagesDeduped++
			stagesDeduped.Inc()
			return d, nil
		}
	}
	d, err := w.tree.simulateStage(ctx, level, id, w.opts, scale, loads)
	if err != nil {
		return d, err
	}
	w.stats.StagesSimulated++
	if !w.opts.NoStageDedup {
		w.memo[sig] = d
	}
	return d, nil
}

// observe folds one leaf arrival into the running statistics.
func (w *walker) observe(leaf int64, at float64) {
	s := &w.stats
	if s.Leaves == 0 || at < s.Min {
		s.Min, s.MinLeaf = at, leaf
	}
	if s.Leaves == 0 || at > s.Max {
		s.Max, s.MaxLeaf = at, leaf
	}
	s.Leaves++
	s.Sum += at
	s.SumSq += at * at
	s.Hist[histBucket(at)]++
	if cap := w.opts.SampleCap; cap > 0 {
		if len(s.Sample) < cap {
			s.Sample = append(s.Sample, at)
		} else if j := splitmix64(uint64(s.Leaves)) % uint64(s.Leaves); j < uint64(cap) {
			s.Sample[j] = at
		}
	}
	w.observed++
}

// auditResumed validates restored statistics under the process check
// policy (check.StageCheckpoint): the checksum already proved the
// bytes are what was written, this proves the values are a plausible
// mid-walk state before the job accumulates hours of work onto them.
func auditResumed(st *ArrivalStats, stackLen int, seq uint64) error {
	eng := check.Active()
	if !eng.Armed() {
		return nil
	}
	subject := fmt.Sprintf("checkpoint seq %d", seq)
	report := func(inv, detail string) error {
		return eng.Report(&check.Violation{
			Stage: check.StageCheckpoint, Invariant: inv,
			Subject: subject, Detail: detail,
		})
	}
	if st.Leaves < 0 || st.StagesSimulated < 0 || st.StagesDeduped < 0 {
		if err := report("counts are non-negative", fmt.Sprintf("leaves=%d simulated=%d deduped=%d", st.Leaves, st.StagesSimulated, st.StagesDeduped)); err != nil {
			return err
		}
	}
	if st.Leaves > 0 && !(st.Min <= st.Max) {
		if err := report("min ≤ max", fmt.Sprintf("min=%g max=%g", st.Min, st.Max)); err != nil {
			return err
		}
	}
	if math.IsNaN(st.Sum) || math.IsInf(st.Sum, 0) || math.IsNaN(st.SumSq) || math.IsInf(st.SumSq, 0) || st.SumSq < 0 {
		if err := report("sums are finite", fmt.Sprintf("sum=%g sumsq=%g", st.Sum, st.SumSq)); err != nil {
			return err
		}
	}
	var histTotal int64
	for _, n := range st.Hist {
		histTotal += n
	}
	if histTotal != st.Leaves {
		if err := report("histogram mass equals leaf count", fmt.Sprintf("hist=%d leaves=%d", histTotal, st.Leaves)); err != nil {
			return err
		}
	}
	if st.Leaves > 0 && stackLen == 0 {
		if err := report("mid-walk state has a frontier", fmt.Sprintf("leaves=%d stack=0", st.Leaves)); err != nil {
			return err
		}
	}
	return nil
}

// analyzeStream is the one walk behind ArrivalsCtx, AnalyzeCtx and
// SkewReportCtx. With keep it also materialises the arrivals slice
// (the legacy API); ck, when non-nil, adds durable checkpointing.
func (t *Tree) analyzeStream(ctx context.Context, opts SimOptions, ck *Checkpoint, keep bool) (*ArrivalStats, []float64, error) {
	ctx, sp := obs.StartCtx(ctx, "clocktree.arrivals")
	defer sp.End()
	levels := len(t.Levels)
	sp.SetAttr("levels", levels)
	if levels > maxLevels {
		return nil, nil, fmt.Errorf("clocktree: %d levels overflows leaf indexing", levels)
	}
	opts = opts.withDefaults(t.Buffer)

	w := &walker{tree: t, opts: opts, levels: levels}
	w.childLeaves = make([]int64, levels)
	perChild := int64(1)
	for l := levels - 1; l >= 0; l-- {
		w.childLeaves[l] = perChild
		perChild *= 4
	}
	totalLeaves := perChild // 4^levels
	if !opts.NoStageDedup {
		w.memo = make(map[stageSig][4]float64)
	}

	var arrivals []float64
	if keep {
		arrivals = make([]float64, 0, totalLeaves)
	}

	resumed := false
	if ck != nil && ck.Store != nil {
		key, err := t.JobKey(opts)
		if err != nil {
			return nil, nil, err
		}
		if key != ck.Store.Key() {
			return nil, nil, fmt.Errorf("clocktree: checkpoint store was opened for a different job (use Tree.OpenCheckpoint with the same options)")
		}
		if ck.Resume {
			payload, seq, err := ck.Store.Latest(ctx)
			switch {
			case err == nil:
				if derr := w.decodeState(payload); derr != nil {
					// Checksum-valid bytes that don't decode as walker
					// state: treat exactly like a corrupt record —
					// count it and start cold.
					ckptCorruptState.Inc()
					*w = walker{tree: t, opts: opts, levels: w.levels, childLeaves: w.childLeaves}
					if !opts.NoStageDedup {
						w.memo = make(map[stageSig][4]float64)
					}
				} else {
					if aerr := auditResumed(&w.stats, len(w.stack), seq); aerr != nil {
						return nil, nil, aerr
					}
					w.stats.ResumedSeq = seq
					resumed = true
					ckptResumes.Inc()
				}
			case err == ckpt.ErrNoCheckpoint:
				// Cold start.
			default:
				return nil, nil, err
			}
		}
	}
	sp.SetAttr("resumed_seq", w.stats.ResumedSeq)

	if keep && resumed {
		// The legacy slice API never checkpoints (ArrivalsCtx passes
		// ck = nil); a resumed walk cannot reconstruct already-observed
		// arrivals, so refuse rather than return a hole-y slice.
		return nil, nil, fmt.Errorf("clocktree: cannot resume into a materialised arrivals walk")
	}

	if !resumed {
		d, err := w.stageDelays(ctx, 0, 0, 0)
		if err != nil {
			return nil, nil, err
		}
		w.stack = append(w.stack, frame{level: 0, id: 0, base: 0, arrival: t.Buffer.IntrinsicDelay, delays: d})
	}

	simAtLastSave := w.stats.StagesSimulated
	lastSave := time.Now()
	visits := 0
	for len(w.stack) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		f := &w.stack[len(w.stack)-1]
		if f.next == 4 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		i := int(f.next)
		f.next++
		at := f.arrival + f.delays[i]
		if int(f.level) == levels-1 {
			w.observe(f.base+int64(i), at)
			if keep {
				arrivals = append(arrivals, at)
			}
		} else {
			childID := 4*f.id + int64(i) + 1
			childBase := f.base + int64(i)*w.childLeaves[f.level]
			childLevel := int(f.level) + 1
			// f is invalid after the append below (stack may regrow);
			// next was already advanced, so nothing else reads it.
			d, err := w.stageDelays(ctx, childLevel, childID, childBase)
			if err != nil {
				return nil, nil, err
			}
			w.stack = append(w.stack, frame{
				level:   int32(childLevel),
				id:      childID,
				base:    childBase,
				arrival: at + t.Buffer.IntrinsicDelay,
				delays:  d,
			})
		}
		visits++
		if ck != nil && ck.Store != nil {
			due := w.stats.StagesSimulated-simAtLastSave >= int64(ck.everyStages())
			if !due && visits%512 == 0 && time.Since(lastSave) >= ck.every() {
				due = true
			}
			if due {
				if _, err := ck.Store.Save(ctx, w.encodeState()); err != nil {
					if cerr := ctx.Err(); cerr != nil {
						return nil, nil, cerr
					}
					// A failed save never stops the job — it only
					// costs re-simulation after a crash.
					ckptSaveFails.Inc()
				}
				simAtLastSave = w.stats.StagesSimulated
				lastSave = time.Now()
			}
		}
	}

	if w.stats.Leaves != totalLeaves {
		return nil, nil, fmt.Errorf("clocktree: observed %d leaves, expected %d", w.stats.Leaves, totalLeaves)
	}
	treeLeaves.Add(w.observed)
	sp.SetAttr("simulated", w.stats.StagesSimulated)
	sp.SetAttr("deduped", w.stats.StagesDeduped)
	sp.SetAttr("stage_memo", len(w.memo))
	return &w.stats, arrivals, nil
}
