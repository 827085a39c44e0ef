// Package bus models the paper's Fig. 4 bus structure: N parallel
// signal traces between two dedicated AC-ground traces, as one RLC
// netlist ("we can easily construct the RLC netlist for a N parallel
// wires", Section V). Every wire is sectioned into PEEC bars with the
// full partial-inductance coupling matrix; capacitances follow the
// paper's 3-trace decomposition, with signal-to-shield couplings
// grounded and signal-to-signal couplings kept as true coupling
// capacitors (they connect two live nodes).
//
// The package answers the bus questions the extraction enables:
// switching noise injected into quiet victims by any set of
// aggressors, and the victim-position dependence of that noise.
package bus

import (
	"context"
	"fmt"
	"math"

	"clockrlc/internal/capmodel"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/netlist"
	"clockrlc/internal/peec"
	"clockrlc/internal/resist"
	"clockrlc/internal/sim"
)

// Spec describes the bus.
type Spec struct {
	// N is the signal count (the block has N+2 wires with the outer
	// grounds).
	N int
	// Length, SignalWidth, GroundWidth, Spacing define the geometry;
	// spacing is uniform edge-to-edge.
	Length, SignalWidth, GroundWidth, Spacing float64
	// Sections per wire (default 6).
	Sections int
	// DriverRes, RiseTime, LoadCap describe the drivers on every
	// signal (aggressors switch 0→1 V; victims hold 0 V).
	DriverRes, RiseTime, LoadCap float64
}

func (s Spec) withDefaults() Spec {
	if s.Sections <= 0 {
		s.Sections = 6
	}
	if s.DriverRes <= 0 {
		s.DriverRes = 40
	}
	if s.RiseTime <= 0 {
		s.RiseTime = 50e-12
	}
	if s.LoadCap <= 0 {
		s.LoadCap = 50e-15
	}
	return s
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.N < 1 {
		return fmt.Errorf("bus: need at least one signal, got %d", s.N)
	}
	if s.Length <= 0 || s.SignalWidth <= 0 || s.GroundWidth <= 0 || s.Spacing <= 0 {
		return fmt.Errorf("bus: geometry must be positive: %+v", s)
	}
	return nil
}

// Result is one bus noise run.
type Result struct {
	// Peak[i] is the victim i's largest |V| (entries for aggressors
	// hold 0). Indices are signal indices 0..N-1.
	Peak []float64
	// Time and V hold the waveform of the probed victim.
	Time, V []float64
}

// block lays out the N+2 wires.
func (s Spec) block(tech core.Technology) *geom.Block {
	total := s.N + 2
	b := &geom.Block{
		Traces:   make([]geom.Trace, total),
		IsGround: make([]bool, total),
		Rho:      tech.Rho,
	}
	y := 0.0
	for i := 0; i < total; i++ {
		w := s.SignalWidth
		if i == 0 || i == total-1 {
			w = s.GroundWidth
			b.IsGround[i] = true
		}
		b.Traces[i] = geom.Trace{
			X0: 0, Y: y + w/2, Z: tech.Thickness / 2,
			Length: s.Length, Width: w, Thickness: tech.Thickness,
		}
		y += w + s.Spacing
	}
	return b
}

// Noise simulates the bus with the given aggressor signal indices
// switching 0→1 V and every other signal quiet, and reports each
// quiet victim's peak noise. probeVictim selects whose waveform is
// returned (must be a victim).
func Noise(ctx context.Context, e *core.Extractor, s Spec, aggressors []int, probeVictim int) (*Result, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	isAgg := make([]bool, s.N)
	for _, a := range aggressors {
		if a < 0 || a >= s.N {
			return nil, fmt.Errorf("bus: aggressor index %d out of range", a)
		}
		isAgg[a] = true
	}
	if probeVictim < 0 || probeVictim >= s.N || isAgg[probeVictim] {
		return nil, fmt.Errorf("bus: probe victim %d invalid (out of range or an aggressor)", probeVictim)
	}

	blk := s.block(e.Tech)
	caps, err := capmodel.BlockCaps(blk, e.Tech.CapHeight, e.Tech.EpsRel)
	if err != nil {
		return nil, err
	}

	// Sectioned bars for all wires (grounds included).
	n := s.Sections
	secLen := s.Length / float64(n)
	total := s.N + 2
	var bars []peec.Bar
	for _, tr := range blk.Traces {
		full := peec.BarFromTrace(tr)
		for k := 0; k < n; k++ {
			b := full
			b.O[0] = full.O[0] + float64(k)*secLen
			b.L = secLen
			bars = append(bars, b)
		}
	}
	lp := peec.PartialMatrix(bars)

	nl := netlist.New()
	node := func(w int, k int) string {
		if k == 0 {
			if w == 0 || w == total-1 {
				return fmt.Sprintf("g%d.end0", w)
			}
			return fmt.Sprintf("s%d.in", w-1)
		}
		return fmt.Sprintf("w%d.n%d", w, k)
	}
	endNode := func(w int) string {
		if w == 0 || w == total-1 {
			return fmt.Sprintf("g%d.end1", w)
		}
		return fmt.Sprintf("s%d.out", w-1)
	}
	const bondR = 1e-3
	inds := make([]int, len(bars))
	for w := 0; w < total; w++ {
		tr := blk.Traces[w]
		rw, err := resist.ACSkinArea(s.Length, tr.Width, e.Tech.Thickness, e.Tech.Rho, e.Frequency)
		if err != nil {
			return nil, err
		}
		ground := blk.IsGround[w]
		if ground {
			nl.AddR(fmt.Sprintf("w%d.bond0", w), node(w, 0), netlist.Ground, bondR)
		}
		for k := 0; k < n; k++ {
			from := node(w, k)
			to := node(w, k+1)
			if k == n-1 {
				to = endNode(w)
			}
			mid := fmt.Sprintf("w%d.m%d", w, k)
			nl.AddR(fmt.Sprintf("w%d.r%d", w, k), from, mid, rw/float64(n))
			inds[w*n+k] = nl.AddL(fmt.Sprintf("w%d.l%d", w, k), mid, to, lp.At(w*n+k, w*n+k))
			if ground {
				nl.AddR(fmt.Sprintf("w%d.bond%d", w, k+1), to, netlist.Ground, bondR)
				continue
			}
			// Capacitance per the 3-trace decomposition: ground part
			// plus grounded couplings to AC-ground neighbours; true
			// coupling capacitors to live signal neighbours.
			c := caps[w].Ground
			if blk.IsGround[w-1] {
				c += caps[w].Left
			}
			if blk.IsGround[w+1] {
				c += caps[w].Right
			}
			nl.AddC(fmt.Sprintf("w%d.c%d", w, k), to, netlist.Ground, c*s.Length/float64(n))
			if !blk.IsGround[w+1] {
				// Coupling capacitor to the right live neighbour's
				// co-located node (added once per adjacent pair).
				right := node(w+1, k+1)
				if k == n-1 {
					right = endNode(w + 1)
				}
				nl.AddC(fmt.Sprintf("cc%d.%d", w, k), to, right, caps[w].Right*s.Length/float64(n))
			}
		}
	}
	// Full inductive coupling.
	for i := 0; i < len(bars); i++ {
		for j := i + 1; j < len(bars); j++ {
			if m := lp.At(i, j); m != 0 {
				nl.AddK(fmt.Sprintf("k.%d.%d", i, j), inds[i], inds[j], m)
			}
		}
	}
	// Drivers and loads.
	for sig := 0; sig < s.N; sig++ {
		var wave netlist.Waveform = netlist.DC(0)
		if isAgg[sig] {
			wave = netlist.Ramp{V0: 0, V1: 1, Start: 5e-12, Rise: s.RiseTime}
		}
		nl.AddV(fmt.Sprintf("v%d", sig), fmt.Sprintf("d%d", sig), netlist.Ground, wave)
		nl.AddR(fmt.Sprintf("rd%d", sig), fmt.Sprintf("d%d", sig), fmt.Sprintf("s%d.in", sig), s.DriverRes)
		nl.AddC(fmt.Sprintf("cl%d", sig), fmt.Sprintf("s%d.out", sig), netlist.Ground, s.LoadCap)
	}

	var probes []string
	for sig := 0; sig < s.N; sig++ {
		if !isAgg[sig] {
			probes = append(probes, fmt.Sprintf("s%d.out", sig))
		}
	}
	res, err := sim.TransientCtx(ctx, nl, s.RiseTime/150, 20*s.RiseTime, probes)
	if err != nil {
		return nil, fmt.Errorf("bus: %w", err)
	}
	out := &Result{Peak: make([]float64, s.N), Time: res.Time}
	for sig := 0; sig < s.N; sig++ {
		if isAgg[sig] {
			continue
		}
		v, err := res.Waveform(fmt.Sprintf("s%d.out", sig))
		if err != nil {
			return nil, err
		}
		for _, x := range v {
			if a := math.Abs(x); a > out.Peak[sig] {
				out.Peak[sig] = a
			}
		}
		if sig == probeVictim {
			out.V = v
		}
	}
	return out, nil
}
