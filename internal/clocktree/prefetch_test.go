package clocktree

// Tests for the parallel prefetch of memo misses: the walk must stay
// bit-identical to the serial NoStageDedup oracle at any GOMAXPROCS,
// fail on the first failing stage in H-order, and unwind a cancel
// landing inside a batch without leaking workers.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"clockrlc/internal/obs"
)

// randomPerturbation returns seeded options for a tree of the given
// depth: Scale entries on about half the stages of every level and
// loads on about a third of the leaves, each drawn from a few values
// so that some perturbed stages repeat and dedup still has work.
func randomPerturbation(rng *rand.Rand, levels int) SimOptions {
	opts := SimOptions{
		WithL:         rng.Intn(3) != 0,
		Scale:         map[int][3]float64{},
		LeafLoadScale: map[int]float64{},
		SampleCap:     rng.Intn(12),
	}
	scales := [][3]float64{{1.1, 1, 1}, {1, 0.9, 1}, {1.05, 1.05, 1.2}}
	stages := (1<<(2*levels) - 1) / 3
	for id := 0; id < stages; id++ {
		if rng.Intn(2) == 0 {
			opts.Scale[id] = scales[rng.Intn(len(scales))]
		}
	}
	for leaf := 0; leaf < 1<<(2*levels); leaf++ {
		if rng.Intn(3) == 0 {
			opts.LeafLoadScale[leaf] = []float64{0.5, 1.5, 2}[rng.Intn(3)]
		}
	}
	return opts
}

// distinctStages counts a tree's stage instances and their distinct
// signatures by recursing over the heap ids and leaf offsets, the way
// the serial walk reaches them, without the prefetch's id arithmetic.
func distinctStages(levels int, opts SimOptions) (total, distinct int64) {
	seen := map[stageSig]bool{}
	var visit func(level int, id, base, leaves int64)
	visit = func(level int, id, base, leaves int64) {
		total++
		sig := stageSig{level: int32(level), scale: nominalScale, loads: nominalLoads}
		if sc, ok := opts.Scale[int(id)]; ok {
			sig.scale = sc
		}
		if level == levels-1 {
			for i := range sig.loads {
				if sc, ok := opts.LeafLoadScale[int(base)+i]; ok {
					sig.loads[i] = sc
				}
			}
		} else {
			for i := int64(0); i < 4; i++ {
				visit(level+1, 4*id+i+1, base+i*leaves/4, leaves/4)
			}
		}
		seen[sig] = true
	}
	visit(0, 0, 0, int64(1)<<(2*levels))
	return total, int64(len(seen))
}

// TestParallelWalkMatchesSerialOracle holds the prefetching walk to
// the serial NoStageDedup walk on seeded trees of 2–5 levels at
// GOMAXPROCS 1, 2 and 8: every arrival and every statistic bit for
// bit, the simulated/deduped split and the clocktree.stages counter
// equal to the tree's distinct and repeated stage signatures.
func TestParallelWalkMatchesSerialOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(17))
	ctx := context.Background()
	for levels := 2; levels <= 5; levels++ {
		tr := testTree(t, levels)
		opts := randomPerturbation(rng, levels)
		total, distinct := distinctStages(levels, opts)
		exact := opts
		exact.NoStageDedup = true
		want, wantArr, err := tr.analyzeStream(ctx, exact, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if want.StagesSimulated != total {
			t.Fatalf("levels=%d: oracle simulated %d stages of %d", levels, want.StagesSimulated, total)
		}
		want.StagesSimulated, want.StagesDeduped = distinct, total-distinct
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			name := fmt.Sprintf("levels=%d/procs=%d", levels, procs)
			before := treeStages.Value()
			arr, err := tr.ArrivalsCtx(ctx, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ran := treeStages.Value() - before; ran != distinct {
				t.Errorf("%s: clocktree.stages advanced by %d, want %d distinct stages", name, ran, distinct)
			}
			if len(arr) != len(wantArr) {
				t.Fatalf("%s: %d arrivals, oracle %d", name, len(arr), len(wantArr))
			}
			for i := range wantArr {
				if math.Float64bits(arr[i]) != math.Float64bits(wantArr[i]) {
					t.Fatalf("%s: arrival %d = %v, oracle %v", name, i, arr[i], wantArr[i])
				}
			}
			stats, err := tr.AnalyzeCtx(ctx, opts, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			statsEqual(t, name, stats, want)
		}
	}
}

// TestPrefetchReturnsFirstErrorInHOrder makes two leaf stages of one
// prefetch window never switch: the walk must fail on the earlier one
// with the serial walk's exact message, however the batch's workers
// finish.
func TestPrefetchReturnsFirstErrorInHOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	tr := testTree(t, 3)
	opts := SimOptions{WithL: true, LeafLoadScale: map[int]float64{}}
	// Leaf stages 5 and 11 of 16 (heap ids 10 and 16) carry loads too
	// heavy to reach 50 % within the horizon.
	for _, stage := range []int{5, 11} {
		for i := 0; i < 4; i++ {
			opts.LeafLoadScale[4*stage+i] = 1e5
		}
	}
	exact := opts
	exact.NoStageDedup = true
	_, wantErr := tr.ArrivalsCtx(context.Background(), exact)
	if wantErr == nil || !strings.Contains(wantErr.Error(), "stage 10 never switches") {
		t.Fatalf("serial walk: want stage 10 to never switch, got %v", wantErr)
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			_, err := tr.ArrivalsCtx(context.Background(), opts)
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("procs=%d: got %v, want %v", procs, err, wantErr)
			}
		}
	}
}

// cancelOnSpan cancels a context when the n-th span of a name starts.
type cancelOnSpan struct {
	name   string
	n      int64
	seen   atomic.Int64
	cancel context.CancelFunc
}

func (s *cancelOnSpan) Emit(e *obs.Event) {
	if e.Type == obs.EventSpanStart && e.Name == s.name && s.seen.Add(1) == s.n {
		s.cancel()
	}
}

func (s *cancelOnSpan) Flush() error { return nil }

// TestPrefetchCancelLeakFree cancels while a leaf-level batch of
// distinct stages is being simulated on several workers: the walk
// returns the context's error and every worker exits.
func TestPrefetchCancelLeakFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	tr := testTree(t, 3)
	opts := SimOptions{WithL: true, LeafLoadScale: map[int]float64{}}
	for leaf := 0; leaf < 64; leaf++ {
		opts.LeafLoadScale[leaf] = 1 + float64(leaf)/64
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Stages 1 and 2 are the root and the first level-1 stage; the
	// 16 distinct leaf stages follow in one batch, so the fifth stage
	// span starts inside it.
	sink := &cancelOnSpan{name: "clocktree.stage", n: 5, cancel: cancel}
	obs.Default().AddSink(sink)
	defer obs.Default().RemoveSink(sink)
	_, err := tr.AnalyzeCtx(ctx, opts, nil)
	if !errors.Is(err, context.Canceled) || err != ctx.Err() {
		t.Fatalf("want ctx.Err() = %v, got %v", ctx.Err(), err)
	}
	if sink.seen.Load() < 5 {
		t.Fatalf("walk ended after %d stage spans, before the leaf batch", sink.seen.Load())
	}
	settleGoroutines(t, baseline)
}

// TestPrefetchSpans pins the trace shape: one clocktree.prefetch span
// per batch, parented under clocktree.arrivals and carrying its level
// and stage count, the stage spans under their batch, and the
// arrivals span's prefetched total.
func TestPrefetchSpans(t *testing.T) {
	tr := testTree(t, 2)
	opts := perturbedOpts()
	sink := &obs.MemorySink{}
	obs.Default().AddSink(sink)
	stats, err := tr.AnalyzeCtx(context.Background(), opts, nil)
	obs.Default().RemoveSink(sink)
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.BuildTrace(sink.Events())
	var arrivals *obs.TraceSpan
	for _, sp := range trace.Spans {
		if sp.Name == "clocktree.arrivals" {
			arrivals = sp
		}
	}
	if arrivals == nil {
		t.Fatal("no clocktree.arrivals span")
	}
	batched := 0
	for _, sp := range trace.Spans {
		switch sp.Name {
		case "clocktree.prefetch":
			if sp.Parent != arrivals.ID {
				t.Errorf("prefetch span parented under %d, want arrivals %d", sp.Parent, arrivals.ID)
			}
			if _, ok := sp.Attrs["level"]; !ok {
				t.Error("prefetch span has no level attribute")
			}
			n, ok := sp.Attrs["stages"].(int)
			if !ok {
				t.Fatalf("prefetch span stages attribute = %#v", sp.Attrs["stages"])
			}
			batched += n
		case "clocktree.stage":
			if p := trace.Spans[sp.Parent]; p == nil || p.Name != "clocktree.prefetch" {
				t.Errorf("stage span not parented under a prefetch span")
			}
		}
	}
	if int64(batched) != stats.StagesSimulated {
		t.Errorf("prefetch spans cover %d stages, walk simulated %d", batched, stats.StagesSimulated)
	}
	if got := arrivals.Attrs["prefetched"]; got != stats.StagesSimulated {
		t.Errorf("arrivals prefetched = %#v, want %d", got, stats.StagesSimulated)
	}
}
