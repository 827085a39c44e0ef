package sim

// DelaysFromT0Ctx against its oracle: TransientCtx followed by
// DelayFromT0 on every probe.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"clockrlc/internal/netlist"
)

// stageNetlist builds a clock-tree buffer stage as the clocktree
// package does: a ramp source and driver resistor at the H centre, two
// trunk ladders, four arm ladders and four sink loads, with seeded
// wire and load values. With withL the ladders carry inductance
// (dim 111 at six sections), with mutuals the two trunks and the arm
// pairs are coupled. The source ramps from v0 to v1.
func stageNetlist(rng *rand.Rand, withL, mutuals bool, v0, v1 float64) (nl *netlist.Netlist, sinks []string, h, horizon float64) {
	const ps, ff, sections = 1e-12, 1e-15, 6
	slew := (30 + 40*rng.Float64()) * ps
	h, horizon = slew/100, 40*slew
	nl = netlist.New()
	nl.AddV("vsrc", "drv", netlist.Ground, netlist.Ramp{V0: v0, V1: v1, Start: h, Rise: slew})
	nl.AddR("rdrv", "drv", "r", 20+40*rng.Float64())
	wire := func() netlist.SegmentRLC {
		s := netlist.SegmentRLC{R: 5 + 30*rng.Float64(), C: (50 + 300*rng.Float64()) * ff}
		if withL {
			s.L = (0.1 + rng.Float64()) * 1e-9
		}
		return s
	}
	trunk, arm := wire(), wire()
	var inds [][]int
	for _, tr := range [][2]string{{"tl", "L"}, {"tr", "R"}} {
		ind, err := nl.AddLadder(tr[0], "r", tr[1], trunk, sections)
		if err != nil {
			panic(err)
		}
		inds = append(inds, ind)
	}
	sinks = []string{"s0", "s1", "s2", "s3"}
	for i, s := range sinks {
		ind, err := nl.AddLadder("a"+s, []string{"L", "L", "R", "R"}[i], s, arm, sections)
		if err != nil {
			panic(err)
		}
		inds = append(inds, ind)
		nl.AddC("c"+s, s, netlist.Ground, (40+40*rng.Float64())*ff)
	}
	if withL && mutuals {
		for _, pair := range [][2]int{{0, 1}, {2, 3}, {4, 5}} {
			for k := range inds[pair[0]] {
				l1, l2 := inds[pair[0]][k], inds[pair[1]][k]
				nl.AddK(fmt.Sprintf("k%d_%d", pair[0], k), l1, l2, 0.3*nl.Inductors[l1].L)
			}
		}
	}
	return nl, sinks, h, horizon
}

// oracleDelays is the slow path DelaysFromT0Ctx replaces: the whole
// transient recorded, then DelayFromT0 on each probe's waveform.
func oracleDelays(ctx context.Context, nl *netlist.Netlist, h, tstop float64, probes []string, v0, v1 float64) ([]float64, error) {
	res, err := TransientCtx(ctx, nl, h, tstop, probes)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(probes))
	for k, p := range probes {
		if out[k], err = DelayFromT0(res.Time, res.Probes[p], v0, v1); err != nil {
			return nil, fmt.Errorf("sim: probe %q: %w", p, err)
		}
	}
	return out, nil
}

// pickProbes draws 1–4 probes from candidates, sometimes repeating one
// and sometimes adding ground.
func pickProbes(rng *rand.Rand, candidates []string) []string {
	n := 1 + rng.Intn(4)
	probes := make([]string, 0, n)
	for len(probes) < n {
		switch r := rng.Intn(10); {
		case r == 0:
			probes = append(probes, netlist.Ground)
		case r == 1 && len(probes) > 0:
			probes = append(probes, probes[rng.Intn(len(probes))])
		default:
			probes = append(probes, candidates[rng.Intn(len(candidates))])
		}
	}
	return probes
}

func TestDelaysFromT0BitwiseEqualsTransientOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	crossedCases, errCases := 0, 0
	check := func(name string, nl *netlist.Netlist, h, tstop float64, probes []string, v0, v1 float64) {
		t.Helper()
		want, wantErr := oracleDelays(context.Background(), nl, h, tstop, probes, v0, v1)
		got, err := DelaysFromT0Ctx(context.Background(), nl, h, tstop, probes, v0, v1)
		if wantErr != nil {
			if !errors.Is(wantErr, ErrNeverCrosses) {
				t.Fatalf("%s: oracle: %v", name, wantErr)
			}
			if err == nil || err.Error() != wantErr.Error() || !errors.Is(err, ErrNeverCrosses) {
				t.Fatalf("%s: got %v, oracle %v", name, err, wantErr)
			}
			errCases++
			return
		}
		if err != nil {
			t.Fatalf("%s: %v (oracle %v)", name, err, want)
		}
		for k := range want {
			if !sameBits(got[k], want[k]) {
				t.Fatalf("%s: probe %q delay %v, oracle %v", name, probes[k], got[k], want[k])
			}
		}
		crossedCases++
	}
	for rep := 0; rep < 6; rep++ {
		for _, withL := range []bool{false, true} {
			for _, mutuals := range []bool{false, true} {
				if mutuals && !withL {
					continue
				}
				for _, tr := range [][2]float64{{0, 1}, {1, 0}, {0.2, 1.3}} {
					nl, sinks, h, horizon := stageNetlist(rng, withL, mutuals, tr[0], tr[1])
					probes := pickProbes(rng, append(sinks, "r", "L", "drv"))
					// A fifth of the stage horizon still lies far
					// past every sink's crossing and keeps the
					// recorded oracle cheap.
					check(fmt.Sprintf("stage/L=%v/K=%v/%v/%d", withL, mutuals, tr, rep), nl, h, horizon/5, probes, tr[0], tr[1])
				}
				nl, cands, h := randomStage(rng, 5+rng.Intn(150), withL, mutuals)
				tstop := float64(50+rng.Intn(150)) * h
				for _, tr := range [][2]float64{{0, 1}, {1, 0}, {0.5, 0.5}} {
					probes := pickProbes(rng, cands)
					check(fmt.Sprintf("random/L=%v/K=%v/%v/%d", withL, mutuals, tr, rep), nl, h, tstop, probes, tr[0], tr[1])
				}
			}
		}
	}
	if crossedCases < 30 || errCases < 10 {
		t.Fatalf("only %d crossing and %d never-crossing cases; the generator lost coverage", crossedCases, errCases)
	}
	t.Logf("%d crossing and %d never-crossing cases bitwise equal", crossedCases, errCases)
}

func TestDelaysFromT0ErrorsMatchOracle(t *testing.T) {
	rc := func(w netlist.Waveform) *netlist.Netlist {
		nl := netlist.New()
		nl.AddV("vin", "in", "0", w)
		nl.AddR("r", "in", "out", 1e3)
		nl.AddC("c", "out", "0", 1e-12)
		return nl
	}
	floating := rc(netlist.Ramp{V1: 1, Rise: 1e-10})
	floating.AddC("cf", "out", "float", 1e-12)
	ramp := netlist.Ramp{V1: 1, Rise: 1e-10}
	cases := []struct {
		name   string
		nl     *netlist.Netlist
		h, end float64
		probes []string
		is     error
	}{
		{"never crosses", rc(ramp), 1e-11, 2e-10, []string{"out"}, ErrNeverCrosses},
		{"ground probe", rc(ramp), 1e-11, 2e-9, []string{"out", netlist.Ground}, ErrNeverCrosses},
		{"unknown probe", rc(ramp), 1e-11, 2e-9, []string{"out", "nowhere"}, nil},
		{"singular DC", floating, 1e-11, 2e-9, []string{"out"}, nil},
		// The source turns NaN at 0.1 ns, long before out's 50 %
		// crossing near 0.75 ns.
		{"poisoned source", rc(nanAfter{t0: 1e-10}), 1e-11, 2e-9, []string{"out"}, ErrDiverged},
		{"bad grid", rc(ramp), 0, 2e-9, []string{"out"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, want := oracleDelays(context.Background(), tc.nl, tc.h, tc.end, tc.probes, 0, 1)
			_, got := DelaysFromT0Ctx(context.Background(), tc.nl, tc.h, tc.end, tc.probes, 0, 1)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Fatalf("got %v, oracle %v", got, want)
			}
			if tc.is != nil && !errors.Is(got, tc.is) {
				t.Fatalf("got %v, want errors.Is %v", got, tc.is)
			}
		})
	}
}

func TestDelaysFromT0CancelsMidRun(t *testing.T) {
	nl := netlist.New()
	nl.AddV("vin", "in", "0", netlist.Ramp{V1: 1, Rise: 1e-10})
	nl.AddR("r", "in", "out", 1e3)
	nl.AddC("c", "out", "0", 1e-12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// out crosses 50 % near 0.75 ns, thousands of steps past the
	// first cancellation poll.
	if _, err := DelaysFromT0Ctx(ctx, nl, 1e-13, 1e-6, []string{"out"}, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// The step counter records the steps taken: a cancelled run stops
// before the first poll's step, an early-stopped run at the step where
// its last probe crosses.
func TestStepCounterCountsStepsTaken(t *testing.T) {
	nl, sinks, h, horizon := stageNetlist(rand.New(rand.NewSource(5)), true, false, 0, 1)
	delta := func(f func() error) int64 {
		t.Helper()
		before := simSteps.Value()
		if err := f(); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		return simSteps.Value() - before
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := delta(func() error { _, err := TransientCtx(ctx, nl, h, horizon, sinks); return err }); got != cancelCheckStride-1 {
		t.Errorf("cancelled run counted %d steps, want %d", got, cancelCheckStride-1)
	}

	res, err := TransientCtx(context.Background(), nl, h, horizon, sinks)
	if err != nil {
		t.Fatal(err)
	}
	last := 0 // sample index of the last probe's first crossing
	for _, s := range sinks {
		v := res.Probes[s]
		i := 1
		for v[i] < 0.5 {
			i++
		}
		last = max(last, i)
	}
	if got := delta(func() error { _, err := DelaysFromT0Ctx(context.Background(), nl, h, horizon, sinks, 0, 1); return err }); got != int64(last) {
		t.Errorf("early-stopped run counted %d steps, want %d", got, last)
	}
	if full := stepCount(h, horizon); last >= full/2 {
		t.Errorf("last crossing at step %d of %d: the stage no longer stops early", last, full)
	}
}

func TestDelaysFromT0StepDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	// The ramp starts after `start` steps, so the run length — and
	// nothing else — follows it.
	run := func(start int) float64 {
		const h = 1e-12
		nl, probes, _, _ := stageNetlist(rand.New(rand.NewSource(3)), true, true, 0, 1)
		nl.VSources[0].Wave = netlist.Ramp{V1: 1, Start: float64(start) * h, Rise: 50 * h}
		return testing.AllocsPerRun(3, func() {
			if _, err := DelaysFromT0Ctx(context.Background(), nl, h, 4000*h, probes, 0, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if extra := run(1500) - run(500); extra > 2 {
		t.Errorf("1000 extra steps cost %v allocations, want 0", extra)
	}
}

// A warm RLC clock-tree stage (dim 111) reuses its pooled scratch: G,
// C and A alone were ~296 KB, and the whole transient allocated 853 KB
// before they were pooled and 130 KB before the CSR copies of G and C
// and the compressed factors were pooled with them (~21 KB since).
func TestWarmStageTransientAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	nl, sinks, h, horizon := stageNetlist(rand.New(rand.NewSource(9)), true, false, 0, 1)
	run := func() {
		if _, err := DelaysFromT0Ctx(context.Background(), nl, h, horizon, sinks, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const reps = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	const budget = 32 << 10
	per := (m1.TotalAlloc - m0.TotalAlloc) / reps
	t.Logf("warm RLC stage: %d bytes, %d allocations per transient", per, (m1.Mallocs-m0.Mallocs)/reps)
	if per > budget {
		t.Errorf("warm RLC stage allocated %d bytes per transient, budget %d", per, budget)
	}
}
