package sim

// The dense reference stepper and the property test that holds the
// sparse TransientCtx bitwise equal to it.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"clockrlc/internal/linalg"
	"clockrlc/internal/netlist"
)

// denseTransient is the dense trapezoidal stepper TransientCtx
// replaced: the same assembly, DC solve and factorization, then two
// dense MulVec passes and a dense LU solve per step. It is the oracle
// for the sparse step and is kept verbatim in its arithmetic.
func denseTransient(nl *netlist.Netlist, h, tstop float64, probes []string) (*Result, error) {
	m, err := assemble(nl, new(dense))
	if err != nil {
		return nil, err
	}
	b0 := make([]float64, m.dim)
	m.rhs(0, b0)
	gf, err := linalg.FactorInPlace(clone(m.g))
	if err != nil {
		return nil, err
	}
	x, err := gf.Solve(b0)
	if err != nil {
		return nil, err
	}
	a := clone(m.g)
	s := 2 / h
	for i, v := range m.c.Data {
		a.Data[i] += s * v
	}
	af, err := linalg.FactorInPlace(a)
	if err != nil {
		return nil, err
	}
	steps := int(tstop/h + 0.5)
	res := &Result{Probes: make(map[string][]float64, len(probes))}
	record := func(t float64, x []float64) {
		res.Time = append(res.Time, t)
		for _, p := range probes {
			var v float64
			if idx := nodeOf(m.nodeIdx, p); idx >= 0 {
				v = x[idx]
			}
			res.Probes[p] = append(res.Probes[p], v)
		}
	}
	record(0, x)
	bNext := make([]float64, m.dim)
	rhsVec := make([]float64, m.dim)
	for n := 1; n <= steps; n++ {
		t0 := float64(n-1) * h
		t1 := float64(n) * h
		cx := m.c.MulVec(x)
		gx := m.g.MulVec(x)
		m.rhs(t0, rhsVec)
		m.rhs(t1, bNext)
		for i := range rhsVec {
			rhsVec[i] += bNext[i] + s*cx[i] - gx[i]
		}
		if x, err = af.Solve(rhsVec); err != nil {
			return nil, err
		}
		if !finiteVec(x) {
			return nil, fmt.Errorf("step %d: %w", n, ErrDiverged)
		}
		record(t1, x)
	}
	return res, nil
}

// clone returns a copy of m for factoring in place.
func clone(m *linalg.Matrix) *linalg.Matrix {
	c := linalg.NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// randomStage builds a seeded random RC or RLC interconnect of about
// target unknowns: 1–3 driven sources (DC, Ramp or PWL), each feeding
// a random tree of π-ladders through a driver resistor, an occasional
// resistive bridge closing a mesh, random sink loads, and, when
// mutuals is set, random K couplings between the ladders' inductors.
// It returns the netlist, probe nodes (ground included) and a step.
func randomStage(rng *rand.Rand, target int, withL, mutuals bool) (*netlist.Netlist, []string, float64) {
	const ps, ff = 1e-12, 1e-15
	h := (0.2 + rng.Float64()) * ps
	horizon := 200 * h
	nl := netlist.New()
	var nodes, probes []string // nodes: where a ladder may start
	dim := 0
	nSrc := 1 + rng.Intn(3)
	for k := 0; k < nSrc; k++ {
		in, root := fmt.Sprintf("in%d", k), fmt.Sprintf("root%d", k)
		var w netlist.Waveform
		switch rng.Intn(3) {
		case 0:
			w = netlist.DC(rng.Float64())
		case 1:
			w = netlist.Ramp{V0: 0, V1: 0.5 + rng.Float64(), Start: rng.Float64() * horizon / 4, Rise: (1 + rng.Float64()*20) * ps}
		default:
			t1 := rng.Float64() * horizon / 2
			w = netlist.PWL{T: []float64{0, t1, t1 + 5*ps, horizon}, V: []float64{rng.Float64(), 0, 1, 0.3}}
		}
		nl.AddV(fmt.Sprintf("v%d", k), in, netlist.Ground, w)
		nl.AddR(fmt.Sprintf("rd%d", k), in, root, 10+rng.Float64()*100)
		nl.AddC(fmt.Sprintf("cr%d", k), root, netlist.Ground, (1+rng.Float64()*20)*ff)
		nodes = append(nodes, root)
		probes = append(probes, in)
		dim += 3
	}
	var inductors []int
	for ld := 0; dim < target; ld++ {
		sections := 1 + rng.Intn(6)
		seg := netlist.SegmentRLC{R: 5 + rng.Float64()*50, C: (5 + rng.Float64()*100) * ff}
		if withL {
			seg.L = (0.05 + rng.Float64()) * 1e-9
		}
		from := nodes[rng.Intn(len(nodes))]
		to := fmt.Sprintf("s%d", ld)
		ind, err := nl.AddLadder(fmt.Sprintf("w%d", ld), from, to, seg, sections)
		if err != nil {
			panic(err)
		}
		inductors = append(inductors, ind...)
		if rng.Intn(3) == 0 {
			nl.AddC(fmt.Sprintf("cl%d", ld), to, netlist.Ground, (10+rng.Float64()*50)*ff)
		}
		if rng.Intn(8) == 0 {
			nl.AddR(fmt.Sprintf("rb%d", ld), to, nodes[rng.Intn(len(nodes))], 20+rng.Float64()*200)
		}
		nodes = append(nodes, to)
		dim += sections + len(ind)
	}
	if mutuals && len(inductors) > 1 {
		for k := 0; k < len(inductors); k++ {
			l1, l2 := inductors[rng.Intn(len(inductors))], inductors[rng.Intn(len(inductors))]
			if l1 == l2 {
				continue
			}
			kc := (rng.Float64() - 0.5) * 0.8
			nl.AddK(fmt.Sprintf("k%d", k), l1, l2, kc*math.Sqrt(nl.Inductors[l1].L*nl.Inductors[l2].L))
		}
	}
	probes = append(probes, netlist.Ground)
	for _, n := range nodes {
		if rng.Intn(2) == 0 {
			probes = append(probes, n)
		}
	}
	return nl, probes, h
}

// sameBits reports whether a and b are the same float64 bit pattern,
// treating +0 and −0 as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

func TestSparseTransientBitwiseEqualsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	targets := []int{2, 3, 5, 8, 13, 21, 34, 55, 89, 111, 144, 200}
	cases := 0
	for _, target := range targets {
		for _, withL := range []bool{false, true} {
			for _, mutuals := range []bool{false, true} {
				if mutuals && !withL {
					continue
				}
				for rep := 0; rep < 3; rep++ {
					nl, probes, h := randomStage(rng, target, withL, mutuals)
					if target == 2 {
						// The smallest system: one source node and one
						// loaded node.
						nl = netlist.New()
						nl.AddV("v", "in", netlist.Ground, netlist.Ramp{V1: 1, Rise: 10 * h})
						nl.AddR("r", "in", "out", 50)
						nl.AddC("c", "out", netlist.Ground, 1e-13)
						probes = []string{"in", "out"}
					}
					tstop := float64(50+rng.Intn(150)) * h
					name := fmt.Sprintf("target=%d/L=%v/K=%v/%d", target, withL, mutuals, rep)
					want, err := denseTransient(nl, h, tstop, probes)
					if err != nil {
						t.Fatalf("%s: dense: %v", name, err)
					}
					got, err := TransientCtx(context.Background(), nl, h, tstop, probes)
					if err != nil {
						t.Fatalf("%s: sparse: %v", name, err)
					}
					compareResults(t, name, got, want)
					cases++
				}
			}
		}
	}
	t.Logf("%d random stages bitwise equal", cases)
}

func compareResults(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if len(got.Time) != len(want.Time) {
		t.Fatalf("%s: %d time points, dense has %d", name, len(got.Time), len(want.Time))
	}
	for i := range want.Time {
		if !sameBits(got.Time[i], want.Time[i]) {
			t.Fatalf("%s: time[%d] = %v, dense %v", name, i, got.Time[i], want.Time[i])
		}
	}
	if len(got.Probes) != len(want.Probes) {
		t.Fatalf("%s: %d probes, dense has %d", name, len(got.Probes), len(want.Probes))
	}
	for p, w := range want.Probes {
		g := got.Probes[p]
		if len(g) != len(w) {
			t.Fatalf("%s: probe %q has %d samples, dense %d", name, p, len(g), len(w))
		}
		for i := range w {
			if !sameBits(g[i], w[i]) {
				t.Fatalf("%s: probe %q sample %d = %v (%#x), dense %v (%#x)",
					name, p, i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
			}
		}
	}
}

func TestTransientStepDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	nl, probes, h := randomStage(rand.New(rand.NewSource(3)), 111, true, true)
	run := func(steps int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := TransientCtx(context.Background(), nl, h, float64(steps)*h, probes); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A step that allocated anything would add at least 1000; allow a
	// stray runtime allocation from a GC cycle landing mid-measurement.
	if extra := run(1500) - run(500); extra > 2 {
		t.Errorf("1000 extra steps cost %v allocations, want 0", extra)
	}
}

func TestDuplicateProbeRecordedOnce(t *testing.T) {
	res, err := TransientCtx(context.Background(), rcStep(1e3, 1e-12), 1e-11, 1e-10, []string{"out", "out", "0", "0"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"out", "0"} {
		if w := res.Probes[p]; len(w) != len(res.Time) {
			t.Errorf("probe %q: %d samples for %d time points", p, len(w), len(res.Time))
		}
	}
}
