package sim

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"clockrlc/internal/linalg"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
)

// ACResult holds a small-signal frequency sweep: per probed node, the
// complex voltage at each frequency for the requested AC stimulus.
type ACResult struct {
	Freq   []float64
	V      map[string][]complex128
	IProbe map[string][]complex128 // per AC-driven source: branch current
}

// Mag returns |V| of a probed node across the sweep.
func (r *ACResult) Mag(node string) ([]float64, error) {
	v, ok := r.V[node]
	if !ok {
		return nil, fmt.Errorf("sim: node %q was not probed", node)
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = cmplx.Abs(x)
	}
	return out, nil
}

// PhaseDeg returns the phase of a probed node in degrees.
func (r *ACResult) PhaseDeg(node string) ([]float64, error) {
	v, ok := r.V[node]
	if !ok {
		return nil, fmt.Errorf("sim: node %q was not probed", node)
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = cmplx.Phase(x) * 180 / math.Pi
	}
	return out, nil
}

// ACCtx performs a small-signal frequency sweep of the linear netlist.
// acMag maps voltage-source names to their AC magnitudes (sources not
// listed are shorted, i.e. magnitude 0). Probes are node names; the
// branch currents of all AC-driven sources are also recorded. It
// honours cancellation between frequency points and guards each solve
// against non-finite results (ErrDiverged).
func ACCtx(ctx context.Context, nl *netlist.Netlist, freqs []float64, acMag map[string]float64, probes []string) (*ACResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(freqs) == 0 {
		return nil, fmt.Errorf("sim: AC needs at least one frequency")
	}
	_, sp := obs.StartCtx(ctx, "sim.ac")
	sp.SetAttr("freqs", len(freqs))
	defer sp.End()
	for _, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("sim: AC frequency %g must be positive", f)
		}
	}
	d := densePool.Get().(*dense)
	defer densePool.Put(d)
	m, err := assemble(nl, d)
	if err != nil {
		return nil, err
	}
	if _, err := m.probeCols(probes); err != nil {
		return nil, err
	}
	srcIdx := map[string]int{}
	for k, v := range nl.VSources {
		srcIdx[v.Name] = k
	}
	for name := range acMag {
		if _, ok := srcIdx[name]; !ok {
			return nil, fmt.Errorf("sim: AC magnitude for unknown source %q", name)
		}
	}

	res := &ACResult{
		Freq:   append([]float64(nil), freqs...),
		V:      map[string][]complex128{},
		IProbe: map[string][]complex128{},
	}
	b := make([]complex128, m.dim)
	for name, mag := range acMag {
		b[m.srcBase+srcIdx[name]] = complex(mag, 0)
		res.IProbe[name] = nil
	}

	a := linalg.NewCMatrix(m.dim, m.dim)
	for _, f := range freqs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := 2 * math.Pi * f
		for i := range a.Data {
			a.Data[i] = complex(m.g.Data[i], w*m.c.Data[i])
		}
		x, err := linalg.SolveSystemC(a, b)
		if err != nil {
			return nil, fmt.Errorf("sim: AC solve at %g Hz: %w", f, err)
		}
		for _, v := range x {
			if cmplx.IsNaN(v) || cmplx.IsInf(v) {
				simDiverged.Inc()
				return nil, fmt.Errorf("sim: AC solve at %g Hz: %w", f, ErrDiverged)
			}
		}
		for _, p := range probes {
			var v complex128
			if idx := nodeOf(m.nodeIdx, p); idx >= 0 {
				v = x[idx]
			}
			res.V[p] = append(res.V[p], v)
		}
		for name := range acMag {
			res.IProbe[name] = append(res.IProbe[name], x[m.srcBase+srcIdx[name]])
		}
	}
	return res, nil
}

// InputImpedance returns V/I seen by the named AC source across a
// previously computed sweep (the source must have been AC-driven).
func (r *ACResult) InputImpedance(source string, mag float64) ([]complex128, error) {
	i, ok := r.IProbe[source]
	if !ok {
		return nil, fmt.Errorf("sim: source %q was not AC-driven", source)
	}
	out := make([]complex128, len(i))
	for k, cur := range i {
		if cur == 0 {
			out[k] = complex(math.Inf(1), 0)
			continue
		}
		// The MNA source current flows from + to − inside the source;
		// the impedance seen by the source is V/(−I).
		out[k] = complex(mag, 0) / -cur
	}
	return out, nil
}
