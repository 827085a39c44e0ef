// Package sim is the SPICE stand-in: a modified-nodal-analysis (MNA)
// transient simulator for the linear RLC(+K) netlists the extractor
// produces. Integration is trapezoidal with a fixed step; because the
// circuits are linear and time appears only in the sources, the system
// matrix is factored once and each step is a single back-substitution —
// exactly the structure SPICE exploits for linear networks.
//
// TransientCtx records waveforms; DelaysFromT0Ctx, for callers that
// only want each probe's 50 % arrival, records none and stops at the
// step where the last probe crosses. Both drive the same stepping loop.
//
// Each transient factors two dense matrices with partial pivoting,
// G for the DC point and G + (2/h)·C for the steps, in place in dim²
// storage that transients reuse through a sync.Pool. The steps are
// sparse: G, C and the finished L and U factors are compressed to
// their exact nonzeros (the stage netlists are ladders and trees, so
// O(dim) of them, plus fill in L and U), and each step runs two CSR
// products and a permuted forward and back solve over preallocated
// buffers, allocating nothing. The CSR copies of G and C and the
// compressed factors live in the same pooled scratch, refilled in
// place, and A is formed over C's dense storage once C is compressed,
// so a warm RLC stage at dim 111 allocates ~21 KB in 27 allocations
// (the node list and map, the state vectors and the result) where it
// allocated 130 KB in 131 when each transient grew its own CSR slices.
// That keeps the heap, and peak RSS, flat when the clock-tree walk
// runs transients on every core. The pivots, the elimination and every
// accumulation order are the dense solver's, so waveforms are bitwise
// equal to dense stepping. Now that a delay transient ends at its last
// crossing (about a hundred steps for a clock-tree stage), that fixed
// per-transient cost shows: on an RLC stage at dim 111 the two dense
// factorizations are about 12 % of the time and the CSR steps about
// 60 %. A fill-reducing reorder or a premultiplied (2/h)·C − G would
// be faster still but would change rounding, and with it every pinned
// output.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
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

// dense is the storage a transient assembles, factors and steps in:
// the dim×dim G and C (C's storage becomes the trapezoidal matrix A
// once C is compressed), G's and C's CSR, and the compressed factors
// of A. At dim 111 each dense matrix is ~99 KB, so transients take it
// all from densePool instead of allocating it afresh.
type dense struct {
	g, c   linalg.Matrix
	gs, cs linalg.CSR
	lu     linalg.SparseLU
}

var densePool = sync.Pool{New: func() any { return new(dense) }}

// square reshapes m to a zeroed n×n matrix, reusing its storage when it
// is large enough.
func square(m *linalg.Matrix, n int) *linalg.Matrix {
	if cap(m.Data) < n*n {
		m.Data = make([]float64, n*n)
	} else {
		m.Data = m.Data[:n*n]
		clear(m.Data)
	}
	m.Rows, m.Cols = n, n
	return m
}

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

// assemble stamps nl into G and C, which live in d's storage.
func assemble(nl *netlist.Netlist, d *dense) (*mna, error) {
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
	m.g = square(&d.g, m.dim)
	m.c = square(&d.c, m.dim)

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

// probeCols resolves each probe to its state column, -1 for ground.
func (m *mna) probeCols(probes []string) ([]int, error) {
	cols := make([]int, len(probes))
	for k, p := range probes {
		cols[k] = nodeOf(m.nodeIdx, p)
		if cols[k] < 0 {
			continue
		}
		if _, ok := m.nodeIdx[p]; !ok {
			return nil, fmt.Errorf("sim: unknown probe node %q", p)
		}
	}
	return cols, nil
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

// stepCount is the number of fixed steps of size h that reach tstop.
func stepCount(h, tstop float64) int { return int(tstop/h + 0.5) }

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
	// Record each distinct probe once.
	var names []string
	for _, p := range probes {
		if !slices.Contains(names, p) {
			names = append(names, p)
		}
	}
	var res *Result
	var waves [][]float64
	err := integrate(ctx, nl, h, tstop, names, func(n int, t float64, v []float64) bool {
		if n == 0 {
			// Preallocate every waveform so recording a step is a
			// plain append.
			steps := stepCount(h, tstop)
			res = &Result{Time: make([]float64, 0, steps+1), Probes: make(map[string][]float64, len(names))}
			waves = make([][]float64, len(names))
			for k := range waves {
				waves[k] = make([]float64, 0, steps+1)
			}
		}
		res.Time = append(res.Time, t)
		for k, x := range v {
			waves[k] = append(waves[k], x)
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	for k, p := range names {
		res.Probes[p] = waves[k]
	}
	return res, nil
}

// DelaysFromT0Ctx returns, for each probe, the time its voltage first
// reaches the 50 % level of a v0→v1 transition (rising or falling),
// measured from t = 0: exactly DelayFromT0(res.Time, res.Probes[p],
// v0, v1) for the res TransientCtx would return, bit for bit, with the
// same errors for a bad grid, an unknown probe, a singular system, a
// cancelled context, a probe that never crosses within tstop
// (ErrNeverCrosses) and a failed checkDelay.
//
// It records no waveforms: each probe's crossing is interpolated as the
// steps stream past, and the run stops at the step where the last probe
// crosses. Steps after that are never computed, so a divergence that
// would only start once every probe has switched is not reported —
// the one way it differs from TransientCtx.
func DelaysFromT0Ctx(ctx context.Context, nl *netlist.Netlist, h, tstop float64, probes []string, v0, v1 float64) ([]float64, error) {
	level, rising := v0+0.5*(v1-v0), v1 > v0
	delays := make([]float64, len(probes))
	crossed := make([]bool, len(probes))
	prev := make([]float64, len(probes))
	var tPrev float64
	left := len(probes)
	err := integrate(ctx, nl, h, tstop, probes, func(n int, t float64, v []float64) bool {
		if n > 0 {
			for k, b := range v {
				if crossed[k] {
					continue
				}
				if tc, ok := crossing(tPrev, t, prev[k], b, level, rising); ok {
					delays[k], crossed[k] = tc, true
					left--
				}
			}
		}
		copy(prev, v)
		tPrev = t
		return left == 0
	})
	if err != nil {
		return nil, err
	}
	for k, p := range probes {
		if !crossed[k] {
			return nil, fmt.Errorf("sim: probe %q: %w %g", p, ErrNeverCrosses, level)
		}
		if err := checkDelay("DelayFromT0", delays[k]); err != nil {
			return nil, err
		}
	}
	return delays, nil
}

// integrate is the one trapezoidal stepping loop behind TransientCtx
// and DelaysFromT0Ctx. After the DC operating point (n = 0, t = 0) and
// after each step n (t = n·h) it calls visit with the probes'
// voltages, v[k] for probes[k] (0 for ground); v is reused between
// calls. visit returning true ends the run there; otherwise it runs to
// tstop.
func integrate(ctx context.Context, nl *netlist.Netlist, h, tstop float64, probes []string,
	visit func(n int, t float64, v []float64) (stop bool)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if h <= 0 || tstop <= 0 || tstop < h {
		return fmt.Errorf("sim: bad time grid (h=%g, tstop=%g)", h, tstop)
	}
	_, sp := obs.StartCtx(ctx, "sim.transient")
	defer sp.End()
	simTransients.Inc()
	simStepHist.Observe(h)
	defer obs.SinceNs(simNs, time.Now())
	d := densePool.Get().(*dense)
	defer densePool.Put(d)
	m, err := assemble(nl, d)
	if err != nil {
		return err
	}
	sp.SetAttr("dim", m.dim)
	simDimHist.Observe(float64(m.dim))
	cols, err := m.probeCols(probes)
	if err != nil {
		return err
	}

	// Every step touches only G, C and the factors: compress G and C to
	// their exact nonzeros so a step costs O(nnz), not O(dim²). Then
	// form the trapezoidal system matrix A = G + (2/h)·C over C's dense
	// storage, after which G and A are factored in place.
	g, c := &d.gs, &d.cs
	m.g.CSR(g)
	m.c.CSR(c)
	s := 2 / h
	a := m.c
	m.c = nil
	for i, v := range m.g.Data {
		a.Data[i] = v + s*a.Data[i]
	}

	// DC operating point: G·x = b(0).
	b0 := make([]float64, m.dim)
	m.rhs(0, b0)
	gf, err := linalg.FactorInPlace(m.g)
	simFactors.Inc()
	if err != nil {
		return fmt.Errorf("sim: DC operating point is singular (floating node or inductor loop): %w", err)
	}
	x, err := gf.Solve(b0)
	if err != nil {
		return fmt.Errorf("sim: DC solve: %w", err)
	}
	if !finiteVec(x) {
		simDiverged.Inc()
		return fmt.Errorf("sim: DC operating point: %w", ErrDiverged)
	}
	af, err := linalg.FactorInPlace(a)
	simFactors.Inc()
	if err != nil {
		return fmt.Errorf("sim: transient matrix singular: %w", err)
	}
	lu := &d.lu
	af.Sparse(lu)
	sp.SetAttr("nnz_lu", lu.NNZ())

	// Count the steps actually taken, however the run ends: one bulk
	// add per run, nothing observed inside the step loop.
	taken := 0
	defer func() {
		simSteps.Add(int64(taken))
		simStepsHist.Observe(float64(taken))
		sp.SetAttr("steps", taken)
	}()
	v := make([]float64, len(cols))
	probe := func(x []float64) []float64 {
		for k, col := range cols {
			v[k] = 0
			if col >= 0 {
				v[k] = x[col]
			}
		}
		return v
	}
	if visit(0, 0, probe(x)) {
		return nil
	}

	// rhs = b(t0) + (b(t1) + (2/h)C·x0 − G·x0); b(t1) of one step is
	// b(t0) of the next, so the two source vectors swap roles.
	bt0, bt1 := b0, make([]float64, m.dim)
	cx := make([]float64, m.dim)
	gx := make([]float64, m.dim)
	rhsVec := make([]float64, m.dim)
	xNext := make([]float64, m.dim)
	steps := stepCount(h, tstop)
	for n := 1; n <= steps; n++ {
		if n%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
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
			return fmt.Errorf("sim: step %d (t=%g s): right-hand side non-finite (bad source?): %w", n, t1, ErrDiverged)
		}
		lu.SolveInto(xNext, rhsVec)
		if !finiteVec(xNext) {
			simDiverged.Inc()
			return fmt.Errorf("sim: step %d (t=%g s): %w", n, t1, ErrDiverged)
		}
		x, xNext = xNext, x
		bt0, bt1 = bt1, bt0
		taken = n
		if visit(n, t1, probe(x)) {
			break
		}
	}
	return nil
}
