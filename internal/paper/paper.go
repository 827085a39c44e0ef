// Package paper assembles the concrete experiments of the DATE 2000
// paper: the Fig. 1 configuration, the Fig. 5 foundation check, the
// Table I cascading comparison, the Section V clocktree studies, and
// the supporting sweeps. cmd/figures prints these, the root-level
// benchmarks time them, and EXPERIMENTS.md records their outputs
// against the paper's numbers.
package paper

import (
	"context"
	"fmt"

	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// RiseTime is the clock buffer edge. The paper never states it
// explicitly; 50 ps reconciles its 28.01 ps RC delay (which a slower
// edge would smear upward) with its multi-GHz significant-frequency
// regime. The matching significant frequency is 6.4 GHz.
const RiseTime = 50 * units.PicoSecond

// Fsig is the significant frequency of the paper's edges.
var Fsig = units.SignificantFrequency(RiseTime)

// Vdd is the normalized supply.
const Vdd = 1.0

// DriverRes is the Fig. 1 clock buffer source resistance ("about 40
// ohm").
const DriverRes = 40.0

// SinkCap is the load presented by the sink (next buffer input); the
// paper does not state it, 50 fF is typical.
const SinkCap = 50e-15

// CalibratedLineCap is the Fig. 1 net's total capacitance implied by
// the paper's own RC-only delay: 28.01 ps through the 40 Ω driver
// gives C ≈ delay/(ln 2 · R) ≈ 1.0 pF. Our full extraction of the
// stated cross section yields ≈2.5 pF (dominated by the lateral
// coupling across the 1 µm gaps, confirmed by the 2-D field solver);
// the paper's capacitance stack is evidently different in a way the
// text does not specify. Experiment E1 reports both variants.
const CalibratedLineCap = 28.01e-12 / (0.6931 * DriverRes)

// Tech is the technology stack assumed throughout: 2 µm thick copper
// clock routing (Fig. 1), oxide dielectric, capacitive reference
// 2 µm below (the orthogonal signal layer of Fig. 1), and an
// inductive ground plane 2 µm below the layer for the microstrip
// configuration (Fig. 9).
func Tech() core.Technology {
	return core.Technology{
		Thickness:      units.Um(2),
		Rho:            units.RhoCopper,
		EpsRel:         units.EpsSiO2,
		CapHeight:      units.Um(2),
		PlaneGap:       units.Um(2),
		PlaneThickness: units.Um(1),
	}
}

// Fig1Segment is the paper's co-planar waveguide clock net: 6000 µm
// long, 10 µm signal, 5 µm grounds, 1 µm spacings, 2 µm thick.
func Fig1Segment() core.Segment {
	return core.Segment{
		Length:      units.Um(6000),
		SignalWidth: units.Um(10),
		GroundWidth: units.Um(5),
		Spacing:     units.Um(1),
		Shielding:   geom.ShieldNone,
	}
}

// Axes returns the table sweep used by the experiments: fine enough
// that interpolation error stays below a per cent across the Fig. 1
// and Fig. 6 geometries.
func Axes() table.Axes {
	return table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(14), 5),
		Spacings: table.LogAxis(units.Um(0.5), units.Um(22), 6),
		Lengths:  table.LogAxis(units.Um(50), units.Um(8000), 8),
	}
}

// NewExtractor builds the experiment extractor with both table sets.
func NewExtractor(ctx context.Context) (*core.Extractor, error) {
	e, err := core.NewExtractorCtx(ctx, Tech(), Fsig, Axes(), nil)
	if err != nil {
		return nil, fmt.Errorf("paper: %w", err)
	}
	return e, nil
}
