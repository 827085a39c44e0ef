// Package sim is the SPICE stand-in: a modified-nodal-analysis (MNA)
// transient simulator for the linear RLC(+K) netlists the extractor
// produces. Integration is trapezoidal with a fixed step; because the
// circuits are linear and time appears only in the sources, the system
// matrix is factored once and each step is a single back-substitution —
// exactly the structure SPICE exploits for linear networks.
//
// The factorization is dense (linalg.Factor, partial pivoting); it
// runs once per transient and never shows in a profile. The steps are
// sparse: G, C and the finished L and U factors are compressed to
// their exact nonzeros (the stage netlists are ladders and trees, so
// O(dim) of them), and each step runs two CSR products and a permuted
// forward and back solve over preallocated buffers, allocating
// nothing. The pivots, the elimination and every accumulation order
// are the dense solver's, so waveforms are bitwise equal to dense
// stepping. A fill-reducing reorder or a premultiplied (2/h)·C − G
// would be faster still but would change rounding, and with it every
// pinned output.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"clockrlc/internal/linalg"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
)

// ErrDiverged is returned when a simulation's state vector stops
// being finite — numerical divergence or a poisoned source — instead
// of recording NaN/Inf waveforms that silently corrupt every derived
// delay and skew number.
var ErrDiverged = errors.New("sim: solution diverged (non-finite values)")

// simDiverged counts transient/AC runs aborted by the divergence
// guard.
var simDiverged = obs.GetCounter("sim.diverged")

// finiteVec reports whether every component of x is finite.
func finiteVec(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// cancelCheckStride bounds how many integration steps run between
// context polls: cancellation latency stays under a few dozen
// back-substitutions while the hot loop stays branch-cheap.
const cancelCheckStride = 64

// Transient-simulator accounting. Counters are bumped once per run
// (never inside the step loop) so the unobserved hot path is
// untouched; the histograms record per-run shape (system dimension,
// step count, timestep) for profiling the MNA workload.
var (
	simTransients = obs.GetCounter("sim.transients")
	simSteps      = obs.GetCounter("sim.steps")
	simFactors    = obs.GetCounter("sim.factorizations")
	simNs         = obs.GetCounter("sim.transient_ns")
	simDimHist    = obs.GetHistogram("sim.dim")
	simStepsHist  = obs.GetHistogram("sim.steps_per_run")
	simStepHist   = obs.GetHistogram("sim.timestep_seconds")
)

// mna holds the assembled descriptor system G·x + C·ẋ = b(t) where x
// stacks node voltages, inductor currents and source currents.
type mna struct {
	nl       *netlist.Netlist
	nodeIdx  map[string]int // node name → column (ground absent)
	nNodes   int
	indBase  int // first inductor-current column
	srcBase  int // first source-current column
	dim      int
	g, c     *linalg.Matrix
	srcNodes [][2]int // per source: (A idx, B idx), -1 = ground
}

func nodeOf(m map[string]int, name string) int {
	if name == netlist.Ground || name == "gnd" {
		return -1
	}
	return m[name]
}

func assemble(nl *netlist.Netlist) (*mna, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	nodes := nl.Nodes()
	m := &mna{
		nl:      nl,
		nodeIdx: make(map[string]int, len(nodes)),
		nNodes:  len(nodes),
	}
	for i, n := range nodes {
		m.nodeIdx[n] = i
	}
	m.indBase = m.nNodes
	m.srcBase = m.nNodes + len(nl.Inductors)
	m.dim = m.srcBase + len(nl.VSources)
	if m.dim == 0 {
		return nil, errors.New("sim: empty circuit")
	}
	m.g = linalg.NewMatrix(m.dim, m.dim)
	m.c = linalg.NewMatrix(m.dim, m.dim)

	stampPair := func(mat *linalg.Matrix, a, b int, v float64) {
		if a >= 0 {
			mat.Add(a, a, v)
		}
		if b >= 0 {
			mat.Add(b, b, v)
		}
		if a >= 0 && b >= 0 {
			mat.Add(a, b, -v)
			mat.Add(b, a, -v)
		}
	}
	for _, r := range nl.Resistors {
		stampPair(m.g, nodeOf(m.nodeIdx, r.A), nodeOf(m.nodeIdx, r.B), 1/r.R)
	}
	for _, c := range nl.Capacitors {
		stampPair(m.c, nodeOf(m.nodeIdx, c.A), nodeOf(m.nodeIdx, c.B), c.C)
	}
	for k, l := range nl.Inductors {
		row := m.indBase + k
		a, b := nodeOf(m.nodeIdx, l.A), nodeOf(m.nodeIdx, l.B)
		// KCL: branch current leaves A, enters B.
		if a >= 0 {
			m.g.Add(a, row, 1)
			m.g.Add(row, a, 1)
		}
		if b >= 0 {
			m.g.Add(b, row, -1)
			m.g.Add(row, b, -1)
		}
		// Branch equation: v_A − v_B − L·di/dt (− M terms) = 0.
		m.c.Add(row, row, -l.L)
	}
	for _, mu := range nl.Mutuals {
		r1 := m.indBase + mu.L1
		r2 := m.indBase + mu.L2
		m.c.Add(r1, r2, -mu.M)
		m.c.Add(r2, r1, -mu.M)
	}
	m.srcNodes = make([][2]int, len(nl.VSources))
	for k, v := range nl.VSources {
		row := m.srcBase + k
		a, b := nodeOf(m.nodeIdx, v.A), nodeOf(m.nodeIdx, v.B)
		m.srcNodes[k] = [2]int{a, b}
		if a >= 0 {
			m.g.Add(a, row, 1)
			m.g.Add(row, a, 1)
		}
		if b >= 0 {
			m.g.Add(b, row, -1)
			m.g.Add(row, b, -1)
		}
	}
	return m, nil
}

// rhs fills b(t): source rows carry the source voltages.
func (m *mna) rhs(t float64, b []float64) {
	for i := range b {
		b[i] = 0
	}
	for k, v := range m.nl.VSources {
		b[m.srcBase+k] = v.Wave.At(t)
	}
}

// Result holds a transient run: the time axis and the probed node
// voltage waveforms.
type Result struct {
	Time   []float64
	Probes map[string][]float64
}

// Waveform returns the samples for a probed node.
func (r *Result) Waveform(node string) ([]float64, error) {
	w, ok := r.Probes[node]
	if !ok {
		return nil, fmt.Errorf("sim: node %q was not probed", node)
	}
	return w, nil
}

// TransientCtx runs a fixed-step trapezoidal simulation from 0 to
// tstop with step h, recording the voltages of the probe nodes (ground
// may be probed and is identically zero). The initial state is the DC
// operating point of the sources at t = 0.
//
// It honours cancellation (polled every cancelCheckStride steps, so a
// cancel lands within a handful of back-substitutions) and is guarded
// against divergence: the state vector is checked for NaN/Inf after every step and a non-finite
// state aborts with ErrDiverged naming the step instead of returning
// poisoned waveforms.
func TransientCtx(ctx context.Context, nl *netlist.Netlist, h, tstop float64, probes []string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if h <= 0 || tstop <= 0 || tstop < h {
		return nil, fmt.Errorf("sim: bad time grid (h=%g, tstop=%g)", h, tstop)
	}
	_, sp := obs.StartCtx(ctx, "sim.transient")
	defer sp.End()
	simTransients.Inc()
	simStepHist.Observe(h)
	defer obs.SinceNs(simNs, time.Now())
	m, err := assemble(nl)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("dim", m.dim)
	simDimHist.Observe(float64(m.dim))
	for _, p := range probes {
		if p == netlist.Ground || p == "gnd" {
			continue
		}
		if _, ok := m.nodeIdx[p]; !ok {
			return nil, fmt.Errorf("sim: unknown probe node %q", p)
		}
	}

	// DC operating point: G·x = b(0).
	b0 := make([]float64, m.dim)
	m.rhs(0, b0)
	gf, err := linalg.Factor(m.g)
	simFactors.Inc()
	if err != nil {
		return nil, fmt.Errorf("sim: DC operating point is singular (floating node or inductor loop): %w", err)
	}
	x, err := gf.Solve(b0)
	if err != nil {
		return nil, fmt.Errorf("sim: DC solve: %w", err)
	}
	if !finiteVec(x) {
		simDiverged.Inc()
		return nil, fmt.Errorf("sim: DC operating point: %w", ErrDiverged)
	}

	// Trapezoidal system matrix A = G + (2/h)·C, factored once.
	a := m.g.Clone()
	s := 2 / h
	for i, v := range m.c.Data {
		a.Data[i] += s * v
	}
	af, err := linalg.Factor(a)
	simFactors.Inc()
	if err != nil {
		return nil, fmt.Errorf("sim: transient matrix singular: %w", err)
	}
	// Every step touches only G, C and the factors: compress them to
	// their exact nonzeros so a step costs O(nnz), not O(dim²).
	g, c, lu := m.g.CSR(), m.c.CSR(), af.Sparse()
	sp.SetAttr("nnz_lu", lu.NNZ())

	steps := int(tstop/h + 0.5)
	// Bulk-add once per run; nothing observes inside the step loop.
	simSteps.Add(int64(steps))
	simStepsHist.Observe(float64(steps))
	sp.SetAttr("steps", steps)
	res := &Result{
		Time:   make([]float64, 0, steps+1),
		Probes: make(map[string][]float64, len(probes)),
	}
	// Resolve each distinct probe to its state column and a
	// preallocated waveform once, so recording a step is a plain
	// append.
	type probe struct {
		name string
		col  int // -1 = ground
		wave []float64
	}
	var pw []probe
	for _, p := range probes {
		if _, dup := res.Probes[p]; !dup {
			res.Probes[p] = nil
			pw = append(pw, probe{p, nodeOf(m.nodeIdx, p), make([]float64, 0, steps+1)})
		}
	}
	record := func(t float64, x []float64) {
		res.Time = append(res.Time, t)
		for k := range pw {
			var v float64
			if pw[k].col >= 0 {
				v = x[pw[k].col]
			}
			pw[k].wave = append(pw[k].wave, v)
		}
	}
	record(0, x)

	// rhs = b(t0) + (b(t1) + (2/h)C·x0 − G·x0); b(t1) of one step is
	// b(t0) of the next, so the two source vectors swap roles.
	bt0, bt1 := b0, make([]float64, m.dim)
	cx := make([]float64, m.dim)
	gx := make([]float64, m.dim)
	rhsVec := make([]float64, m.dim)
	xNext := make([]float64, m.dim)
	for n := 1; n <= steps; n++ {
		if n%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		t1 := float64(n) * h
		c.MulVecInto(cx, x)
		g.MulVecInto(gx, x)
		m.rhs(t1, bt1)
		for i := range rhsVec {
			rhsVec[i] = bt0[i] + (bt1[i] + s*cx[i] - gx[i])
		}
		if !finiteVec(rhsVec) {
			simDiverged.Inc()
			return nil, fmt.Errorf("sim: step %d (t=%g s): right-hand side non-finite (bad source?): %w", n, t1, ErrDiverged)
		}
		lu.SolveInto(xNext, rhsVec)
		if !finiteVec(xNext) {
			simDiverged.Inc()
			return nil, fmt.Errorf("sim: step %d (t=%g s): %w", n, t1, ErrDiverged)
		}
		x, xNext = xNext, x
		bt0, bt1 = bt1, bt0
		record(t1, x)
	}
	for _, p := range pw {
		res.Probes[p.name] = p.wave
	}
	return res, nil
}
