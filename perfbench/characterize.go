package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/spline"
	"clockrlc/internal/table"
)

// The characterize workload: the paper's Sec. III offline cost. One
// pass builds coplanar, microstrip and stripline tables cold on
// table.DefaultAxes at two rise times (one corner per rise time),
// writes each set through table.Cache (v3) and reopens it with
// table.LoadFile. The seed jitters the technology so that no cached
// result can be reused.

var shieldings = []geom.Shielding{geom.ShieldNone, geom.ShieldMicrostrip, geom.ShieldStripline}

// charRecord is one set a pass built, saved and reopened.
type charRecord struct {
	cfg           table.Config
	built, loaded *table.Set
}

type charJob struct {
	seed    int64
	axes    table.Axes
	corners [][]table.Config
	cache   *table.Cache
	passes  [][]charRecord
}

func setupCharacterize(ctx context.Context, seed int64, dir string) (job, error) {
	return newCharJob(ctx, seed, dir, table.DefaultAxes())
}

// newCharJob opens the cache in dir, an existing directory as a
// user's cache is, and probes it for every corner's sets as a
// characterisation flow does; a new corner misses them all.
func newCharJob(ctx context.Context, seed int64, dir string, axes table.Axes) (*charJob, error) {
	cache, err := table.NewCache(dir)
	if err != nil {
		return nil, err
	}
	tech := jitteredTech(seed)
	j := &charJob{seed: seed, axes: axes, cache: cache}
	for _, tr := range riseTimesPs {
		var corner []table.Config
		for _, sh := range shieldings {
			cfg := tableConfig(tech, sh, tr)
			if _, hit, err := cache.GetCtx(ctx, cfg, axes); err != nil || hit {
				return nil, fmt.Errorf("cache probe for %s: hit %v: %v", cfg.Name, hit, err)
			}
			corner = append(corner, cfg)
		}
		j.corners = append(j.corners, corner)
	}
	return j, nil
}

func (j *charJob) pass(ctx context.Context, ps *passStats) error {
	var recs []charRecord
	for _, corner := range j.corners {
		t0 := time.Now()
		cctx, csp := obs.StartCtx(ctx, "bench.corner")
		for _, cfg := range corner {
			ps.attempted++
			rec, err := j.characterize(cctx, cfg)
			if err != nil {
				ps.failed++
				continue
			}
			recs = append(recs, rec)
		}
		csp.End()
		ps.ops = append(ps.ops, time.Since(t0))
	}
	j.passes = append(j.passes, recs)
	return nil
}

// characterize builds one set cold, saves it through the cache and
// reopens the written file.
func (j *charJob) characterize(ctx context.Context, cfg table.Config) (charRecord, error) {
	bctx, sp := obs.StartCtx(ctx, "bench.build")
	built, err := table.BuildCtx(bctx, cfg, j.axes, nil)
	sp.End()
	if err != nil {
		return charRecord{}, err
	}
	_, sp = obs.StartCtx(ctx, "bench.save")
	err = j.cache.PutCtx(ctx, built)
	sp.End()
	if err != nil {
		return charRecord{}, err
	}
	key, err := table.CacheKey(cfg, j.axes)
	if err != nil {
		return charRecord{}, err
	}
	_, sp = obs.StartCtx(ctx, "bench.open")
	loaded, err := table.LoadFile(j.cache.Path(key))
	sp.End()
	if err != nil {
		return charRecord{}, err
	}
	return charRecord{cfg: cfg, built: built, loaded: loaded}, nil
}

func (j *charJob) verify(ctx context.Context) (int, []string) {
	return checkCharacterize(ctx, j.passes, j.seed)
}

func (j *charJob) close() {
	for _, recs := range j.passes {
		for _, r := range recs {
			r.loaded.Close()
		}
	}
	j.passes = nil
}

// checkCharacterize checks that every reopened set is bit-identical to
// the set built in memory, that every pass built the same values, and
// that a seeded sample of the first pass's grid nodes equals a fresh
// build through them — including nodes of the mirrored half of the
// mutual table.
func checkCharacterize(ctx context.Context, passes [][]charRecord, seed int64) (int, []string) {
	checked := 0
	var bad []string
	fail := func(ok bool, format string, args ...any) {
		checked++
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	fail(len(passes) > 0 && len(passes[0]) > 0, "characterize: no set completed")
	for p, recs := range passes {
		for i, r := range recs {
			fail(sameSet(r.built, r.loaded), "characterize pass %d %s: v3 save→load not bit-identical", p, r.cfg.Name)
			if p > 0 && i < len(passes[0]) {
				fail(sameSet(r.built, passes[0][i].built), "characterize pass %d %s: values differ from pass 0", p, r.cfg.Name)
			}
		}
	}
	if len(passes) == 0 {
		return checked, bad
	}
	rng := rand.New(rand.NewSource(seed))
	for _, r := range passes[0] {
		for k := 0; k < 2; k++ {
			err := checkNodes(ctx, r, rng)
			fail(err == nil, "characterize %s: %v", r.cfg.Name, err)
		}
	}
	return checked, bad
}

// checkNodes rebuilds a set on 2-point sub-axes drawn from the built
// set's axes and compares every node of the reopened grid at those
// coordinates with the sub-build. Mutual nodes of both width orders
// are compared with the sub-build's solved (w_lo ≤ w_hi) node, which
// checks the big grid's indexing and its mirrored half against a
// solve rather than against the same mirroring.
func checkNodes(ctx context.Context, r charRecord, rng *rand.Rand) error {
	ax := r.loaded.Axes
	wi, si, li := pickPair(rng, len(ax.Widths)), pickPair(rng, len(ax.Spacings)), pickPair(rng, len(ax.Lengths))
	sub := table.Axes{
		Widths:   []float64{ax.Widths[wi[0]], ax.Widths[wi[1]]},
		Spacings: []float64{ax.Spacings[si[0]], ax.Spacings[si[1]]},
		Lengths:  []float64{ax.Lengths[li[0]], ax.Lengths[li[1]]},
	}
	want, err := table.BuildCtx(ctx, r.cfg, sub, nil)
	if err != nil {
		return fmt.Errorf("sub-build: %w", err)
	}
	got := r.loaded
	for a := 0; a < 2; a++ {
		for d := 0; d < 2; d++ {
			if g, w := got.Self.At(wi[a], li[d]), want.Self.At(a, d); g != w {
				return fmt.Errorf("self node (%d,%d) is %g, rebuilt %g", wi[a], li[d], g, w)
			}
			for b := 0; b < 2; b++ {
				for c := 0; c < 2; c++ {
					if g, w := got.Mutual.At(wi[a], wi[b], si[c], li[d]), want.Mutual.At(min(a, b), max(a, b), c, d); g != w {
						return fmt.Errorf("mutual node (%d,%d,%d,%d) is %g, rebuilt %g", wi[a], wi[b], si[c], li[d], g, w)
					}
				}
			}
		}
	}
	return nil
}

// pickPair draws two distinct indices below n, in increasing order.
func pickPair(rng *rand.Rand, n int) [2]int {
	i, k := rng.Intn(n), rng.Intn(n-1)
	if k >= i {
		k++
	}
	return [2]int{min(i, k), max(i, k)}
}

// sameSet reports whether two sets carry bit-identical axes, node
// values and spline coefficients.
func sameSet(a, b *table.Set) bool {
	if a == nil || b == nil {
		return false
	}
	return sameFloats(a.Axes.Widths, b.Axes.Widths) && sameFloats(a.Axes.Spacings, b.Axes.Spacings) &&
		sameFloats(a.Axes.Lengths, b.Axes.Lengths) && sameGrid(a.Self, b.Self) && sameGrid(a.Mutual, b.Mutual)
}

func sameGrid(a, b *spline.Grid) bool {
	if a.Dim() != b.Dim() || !sameFloats(a.Vals, b.Vals) {
		return false
	}
	for d := 0; d < a.Dim(); d++ {
		if !sameFloats(a.Axes[d], b.Axes[d]) || !sameFloats(a.Coef(d), b.Coef(d)) {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
