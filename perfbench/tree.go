package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/clocktree"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// The tree_imbalanced workload: the paper's Sec. V skew job on a
// level-4 buffered H-tree (256 sinks, coplanar, 4000 µm half-span,
// treesim's default buffer) whose every sink load is drawn from the
// seed, so all 64 leaf stages are distinct transients. One pass
// analyses the tree in RC and then in RLC mode on warm tables.

const treeLevels = 4

//go:embed golden.json
var goldenJSON []byte

// treeGolden pins the default seed's skew and mean arrival per mode.
type treeGolden struct {
	Seed   int64   `json:"seed"`
	RelTol float64 `json:"rel_tol"`
	RC     golden  `json:"rc"`
	RLC    golden  `json:"rlc"`
}

type golden struct {
	SkewS float64 `json:"skew_s"`
	MeanS float64 `json:"mean_s"`
}

func loadTreeGolden() (treeGolden, error) {
	var g struct {
		Tree treeGolden `json:"tree_imbalanced"`
	}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return treeGolden{}, fmt.Errorf("golden.json: %w", err)
	}
	return g.Tree, nil
}

// treeOutput is what one pass produced.
type treeOutput struct {
	rc, rlc    clocktree.ArrivalStats
	violations int64
}

type treeJob struct {
	seed   int64
	levels int
	tree   *clocktree.Tree
	loads  map[int]float64
	outs   []treeOutput
	// golden is non-nil when the seed's outputs are pinned.
	golden *treeGolden
}

func setupTree(ctx context.Context, seed int64, _ string) (job, error) {
	return newTreeJob(ctx, seed, treeLevels)
}

// newTreeJob builds the coplanar tables cold, the extractor and the
// tree. levels other than treeLevels serve the harness's own tests.
func newTreeJob(ctx context.Context, seed int64, levels int) (*treeJob, error) {
	tech := nominalTech()
	ext, err := core.NewExtractorCtx(ctx, tech, units.SignificantFrequency(50*units.PicoSecond),
		table.DefaultAxes(), []geom.Shielding{geom.ShieldNone})
	if err != nil {
		return nil, err
	}
	seg := core.Segment{
		SignalWidth: units.Um(10),
		GroundWidth: units.Um(5),
		Spacing:     units.Um(1),
		Shielding:   geom.ShieldNone,
	}
	buf := clocktree.Buffer{
		DriveRes:       40,
		InputCap:       50 * units.FemtoFarad,
		IntrinsicDelay: 30 * units.PicoSecond,
		OutSlew:        50 * units.PicoSecond,
	}
	tree, err := clocktree.NewTree(clocktree.HTreeLevels(units.Um(4000), levels, seg), buf, ext)
	if err != nil {
		return nil, err
	}
	j := &treeJob{seed: seed, levels: levels, tree: tree, loads: treeLoads(seed, 1<<(2*levels))}
	if g, err := loadTreeGolden(); err != nil {
		return nil, err
	} else if seed == g.Seed && levels == treeLevels {
		j.golden = &g
	}
	return j, nil
}

func (j *treeJob) leaves() int64 { return 1 << (2 * j.levels) }

func (j *treeJob) pass(ctx context.Context, ps *passStats) error {
	t0 := time.Now()
	var out treeOutput
	v0 := check.Violations()
	for _, withL := range []bool{false, true} {
		actx, sp := obs.StartCtx(ctx, "bench.analyze")
		st, err := j.tree.AnalyzeCtx(actx, clocktree.SimOptions{WithL: withL, LeafLoadScale: j.loads}, nil)
		sp.End()
		ps.attempted++
		if err != nil {
			ps.failed++
			return nil
		}
		if withL {
			out.rlc = *st
		} else {
			out.rc = *st
		}
	}
	out.violations = check.Violations() - v0
	ps.ops = append(ps.ops, time.Since(t0))
	j.outs = append(j.outs, out)
	return nil
}

func (j *treeJob) verify(context.Context) (int, []string) {
	return checkTree(j.outs, j.leaves(), j.golden)
}

func (j *treeJob) close() {}

// checkTree checks every pass's output: all leaves observed with
// finite positive arrivals, RLC mean arrival above RC, no invariant
// violations, passes bit-identical to each other and, for a pinned
// seed, skew and mean within the golden tolerance.
func checkTree(outs []treeOutput, leaves int64, g *treeGolden) (int, []string) {
	checked := 0
	var bad []string
	fail := func(ok bool, format string, args ...any) {
		checked++
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	fail(len(outs) > 0, "tree: no pass completed")
	for p, o := range outs {
		for _, m := range []struct {
			name string
			st   *clocktree.ArrivalStats
		}{{"rc", &o.rc}, {"rlc", &o.rlc}} {
			st := m.st
			fail(st.Leaves == leaves, "tree pass %d %s: %d of %d leaves observed", p, m.name, st.Leaves, leaves)
			fail(positiveFinite(st.Min) && positiveFinite(st.Max) && positiveFinite(st.Mean()) && st.Max >= st.Min,
				"tree pass %d %s: arrivals not finite and positive (min %g, max %g, mean %g)", p, m.name, st.Min, st.Max, st.Mean())
		}
		fail(o.rlc.Mean() > o.rc.Mean(), "tree pass %d: RLC mean arrival %g not above RC %g", p, o.rlc.Mean(), o.rc.Mean())
		fail(o.violations == 0, "tree pass %d: %d new check.violations", p, o.violations)
		if p > 0 {
			first := outs[0]
			fail(o.rc.Sum == first.rc.Sum && o.rc.Max == first.rc.Max && o.rlc.Sum == first.rlc.Sum && o.rlc.Max == first.rlc.Max,
				"tree pass %d: arrivals differ from pass 0", p)
		}
		if g != nil {
			for _, m := range []struct {
				name string
				st   *clocktree.ArrivalStats
				want golden
			}{{"rc", &o.rc, g.RC}, {"rlc", &o.rlc, g.RLC}} {
				skew, mean := m.st.Max-m.st.Min, m.st.Mean()
				fail(relDiff(skew, m.want.SkewS) <= g.RelTol && relDiff(mean, m.want.MeanS) <= g.RelTol,
					"tree pass %d %s: skew %.17g mean %.17g, golden %.17g %.17g (rel tol %g)",
					p, m.name, skew, mean, m.want.SkewS, m.want.MeanS, g.RelTol)
			}
		}
	}
	return checked, bad
}

func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 0) }

// relDiff is |a−b|/|b|, +Inf for a non-finite a.
func relDiff(a, b float64) float64 {
	if math.IsNaN(a) || math.IsInf(a, 0) {
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(b)
}
