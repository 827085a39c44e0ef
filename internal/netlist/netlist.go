// Package netlist models the linear circuits the extractor emits:
// resistors, capacitors, (mutually coupled) inductors and independent
// sources, connected between named nodes. Node "0" (alias "gnd") is
// ground. The package also provides the ladder builders that turn a
// segment's extracted R, L, C into the distributed RLC sections the
// paper's netlist formulation uses.
package netlist

import (
	"errors"
	"fmt"
)

// Ground is the reserved ground node name.
const Ground = "0"

// Resistor is a two-terminal resistance in ohms.
type Resistor struct {
	Name string
	A, B string
	R    float64
}

// Capacitor is a two-terminal capacitance in farads.
type Capacitor struct {
	Name string
	A, B string
	C    float64
}

// Inductor is a two-terminal inductance in henries; current flows
// A → B internally.
type Inductor struct {
	Name string
	A, B string
	L    float64
}

// Mutual couples two inductors (by index into the netlist's inductor
// list) with mutual inductance M in henries (sign included; dots at
// the A terminals).
type Mutual struct {
	Name   string
	L1, L2 int
	M      float64
}

// Waveform is a time-dependent source value.
type Waveform interface {
	At(t float64) float64
}

// DC is a constant waveform.
type DC float64

// At implements Waveform.
func (d DC) At(float64) float64 { return float64(d) }

// Ramp rises linearly from V0 to V1 between Start and Start+Rise and
// holds V1 afterwards. It models the clock buffer's switching edge.
type Ramp struct {
	V0, V1      float64
	Start, Rise float64
}

// At implements Waveform.
func (r Ramp) At(t float64) float64 {
	switch {
	case t <= r.Start:
		return r.V0
	case r.Rise <= 0 || t >= r.Start+r.Rise:
		return r.V1
	default:
		return r.V0 + (r.V1-r.V0)*(t-r.Start)/r.Rise
	}
}

// PWL is a piece-wise linear waveform through (T[i], V[i]) points,
// constant outside the range.
type PWL struct {
	T, V []float64
}

// At implements Waveform.
func (p PWL) At(t float64) float64 {
	n := len(p.T)
	if n == 0 {
		return 0
	}
	if t <= p.T[0] {
		return p.V[0]
	}
	if t >= p.T[n-1] {
		return p.V[n-1]
	}
	for i := 1; i < n; i++ {
		if t <= p.T[i] {
			f := (t - p.T[i-1]) / (p.T[i] - p.T[i-1])
			return p.V[i-1] + f*(p.V[i]-p.V[i-1])
		}
	}
	return p.V[n-1]
}

// VSource is an independent voltage source; the branch current is an
// MNA unknown.
type VSource struct {
	Name string
	A, B string // A is +
	Wave Waveform
}

// Netlist is an editable linear circuit.
type Netlist struct {
	Resistors  []Resistor
	Capacitors []Capacitor
	Inductors  []Inductor
	Mutuals    []Mutual
	VSources   []VSource
}

// New returns an empty netlist.
func New() *Netlist { return &Netlist{} }

// AddR appends a resistor and returns its index.
func (n *Netlist) AddR(name, a, b string, r float64) int {
	n.Resistors = append(n.Resistors, Resistor{Name: name, A: a, B: b, R: r})
	return len(n.Resistors) - 1
}

// AddC appends a capacitor and returns its index.
func (n *Netlist) AddC(name, a, b string, c float64) int {
	n.Capacitors = append(n.Capacitors, Capacitor{Name: name, A: a, B: b, C: c})
	return len(n.Capacitors) - 1
}

// AddL appends an inductor and returns its index (used by AddK).
func (n *Netlist) AddL(name, a, b string, l float64) int {
	n.Inductors = append(n.Inductors, Inductor{Name: name, A: a, B: b, L: l})
	return len(n.Inductors) - 1
}

// AddK couples inductors l1 and l2 (indices from AddL) with mutual
// inductance m (henries).
func (n *Netlist) AddK(name string, l1, l2 int, m float64) int {
	n.Mutuals = append(n.Mutuals, Mutual{Name: name, L1: l1, L2: l2, M: m})
	return len(n.Mutuals) - 1
}

// AddV appends an independent voltage source and returns its index.
func (n *Netlist) AddV(name, a, b string, w Waveform) int {
	n.VSources = append(n.VSources, VSource{Name: name, A: a, B: b, Wave: w})
	return len(n.VSources) - 1
}

// Validate checks element values and coupling coefficients.
func (n *Netlist) Validate() error {
	for _, r := range n.Resistors {
		if r.R <= 0 {
			return fmt.Errorf("netlist: resistor %q has non-positive value %g", r.Name, r.R)
		}
		if r.A == r.B {
			return fmt.Errorf("netlist: resistor %q is shorted (%s-%s)", r.Name, r.A, r.B)
		}
	}
	for _, c := range n.Capacitors {
		if c.C <= 0 {
			return fmt.Errorf("netlist: capacitor %q has non-positive value %g", c.Name, c.C)
		}
		if c.A == c.B {
			return fmt.Errorf("netlist: capacitor %q is shorted", c.Name)
		}
	}
	for _, l := range n.Inductors {
		if l.L <= 0 {
			return fmt.Errorf("netlist: inductor %q has non-positive value %g", l.Name, l.L)
		}
		if l.A == l.B {
			return fmt.Errorf("netlist: inductor %q is shorted", l.Name)
		}
	}
	for _, m := range n.Mutuals {
		if m.L1 < 0 || m.L1 >= len(n.Inductors) || m.L2 < 0 || m.L2 >= len(n.Inductors) {
			return fmt.Errorf("netlist: mutual %q references missing inductor", m.Name)
		}
		if m.L1 == m.L2 {
			return fmt.Errorf("netlist: mutual %q couples an inductor to itself", m.Name)
		}
		l1 := n.Inductors[m.L1].L
		l2 := n.Inductors[m.L2].L
		if k := m.M * m.M / (l1 * l2); k >= 1 {
			return fmt.Errorf("netlist: mutual %q has |k| >= 1 (M=%g, L1=%g, L2=%g)", m.Name, m.M, l1, l2)
		}
	}
	for _, v := range n.VSources {
		if v.Wave == nil {
			return fmt.Errorf("netlist: source %q has no waveform", v.Name)
		}
		if v.A == v.B {
			return fmt.Errorf("netlist: source %q is shorted", v.Name)
		}
	}
	return nil
}

// Nodes returns every node name appearing in the netlist, ground
// excluded, in first-appearance order.
func (n *Netlist) Nodes() []string {
	// A ladder netlist has about one node per element.
	elems := len(n.Resistors) + len(n.Capacitors) + len(n.Inductors) + len(n.VSources)
	order := make([]string, 0, elems)
	seen := make(map[string]bool, elems+2)
	seen[Ground], seen["gnd"] = true, true
	add := func(names ...string) {
		for _, s := range names {
			if !seen[s] {
				seen[s] = true
				order = append(order, s)
			}
		}
	}
	for _, e := range n.Resistors {
		add(e.A, e.B)
	}
	for _, e := range n.Capacitors {
		add(e.A, e.B)
	}
	for _, e := range n.Inductors {
		add(e.A, e.B)
	}
	for _, e := range n.VSources {
		add(e.A, e.B)
	}
	return order
}

// SegmentRLC carries the lumped totals extracted for one wire segment.
type SegmentRLC struct {
	R float64 // total series resistance, Ω
	L float64 // total series (loop) inductance, H
	C float64 // total capacitance to ground, F
}

// Validate checks physical signs. A zero L is allowed (RC-only
// netlists); R and C must be positive.
func (s SegmentRLC) Validate() error {
	if s.R <= 0 || s.C <= 0 || s.L < 0 {
		return fmt.Errorf("netlist: segment RLC out of range (R=%g, L=%g, C=%g)", s.R, s.L, s.C)
	}
	return nil
}

// AddLadder appends a distributed RLC ladder of n π-sections between
// nodes from and to, modelling one extracted segment. Each section
// carries R/n and L/n in series with C/n split half to each end (the
// classic π equivalent: C/2n at the section ends accumulate to C/n at
// interior junctions). With L = 0 the sections degenerate to RC.
// Internal node names are derived from prefix. The indices of the
// created inductors are returned so callers can add inter-segment
// mutual couplings.
func (n *Netlist) AddLadder(prefix, from, to string, seg SegmentRLC, sections int) ([]int, error) {
	if sections < 1 {
		return nil, errors.New("netlist: ladder needs at least one section")
	}
	if err := seg.Validate(); err != nil {
		return nil, err
	}
	if from == to {
		return nil, fmt.Errorf("netlist: ladder %q endpoints coincide", prefix)
	}
	var inductors []int
	rsec := seg.R / float64(sections)
	lsec := seg.L / float64(sections)
	csec := seg.C / float64(sections)
	prev := from
	n.AddC(prefix+".c0", from, Ground, csec/2)
	for s := 0; s < sections; s++ {
		var mid string
		end := to
		if s < sections-1 {
			end = fmt.Sprintf("%s.n%d", prefix, s+1)
		}
		if lsec > 0 {
			mid = fmt.Sprintf("%s.m%d", prefix, s)
			n.AddR(fmt.Sprintf("%s.r%d", prefix, s), prev, mid, rsec)
			inductors = append(inductors,
				n.AddL(fmt.Sprintf("%s.l%d", prefix, s), mid, end, lsec))
		} else {
			n.AddR(fmt.Sprintf("%s.r%d", prefix, s), prev, end, rsec)
		}
		capVal := csec
		if s == sections-1 {
			capVal = csec / 2
		}
		n.AddC(fmt.Sprintf("%s.c%d", prefix, s+1), end, Ground, capVal)
		prev = end
	}
	return inductors, nil
}
