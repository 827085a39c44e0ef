package core

import (
	"context"
	"fmt"
	"sort"

	"clockrlc/internal/geom"
	"clockrlc/internal/netlist"
	"clockrlc/internal/table"
)

// LayerTech names one routing layer's technology parameters. The
// paper builds separate tables per layer because each layer has its
// own nominal thickness (and, in copper processes, often its own
// effective resistivity and dielectric environment).
type LayerTech struct {
	Name string
	Tech Technology
}

// MultiExtractor holds one Extractor per routing layer — the paper's
// "build tables for different layers".
type MultiExtractor struct {
	Frequency float64
	layers    map[string]*Extractor
}

// NewMultiExtractor builds tables for every layer over shared axes and
// shielding configurations (nil selects ShieldNone + ShieldMicrostrip,
// as in NewExtractorCtx).
func NewMultiExtractor(ctx context.Context, layers []LayerTech, freq float64, axes table.Axes, shieldings []geom.Shielding, opts ...Option) (*MultiExtractor, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("core: no layers")
	}
	m := &MultiExtractor{Frequency: freq, layers: map[string]*Extractor{}}
	for _, l := range layers {
		if l.Name == "" {
			return nil, fmt.Errorf("core: layer with empty name")
		}
		if _, dup := m.layers[l.Name]; dup {
			return nil, fmt.Errorf("core: duplicate layer %q", l.Name)
		}
		e, err := NewExtractorCtx(ctx, l.Tech, freq, axes, shieldings, opts...)
		if err != nil {
			return nil, fmt.Errorf("core: layer %q: %w", l.Name, err)
		}
		m.layers[l.Name] = e
	}
	return m, nil
}

// Layer returns the extractor for one routing layer.
func (m *MultiExtractor) Layer(name string) (*Extractor, error) {
	e, ok := m.layers[name]
	if !ok {
		return nil, fmt.Errorf("core: no tables for layer %q (have %v)", name, m.Names())
	}
	return e, nil
}

// Names lists the layers, sorted.
func (m *MultiExtractor) Names() []string {
	out := make([]string, 0, len(m.layers))
	for n := range m.layers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SegmentRLC extracts a segment routed on the named layer.
func (m *MultiExtractor) SegmentRLC(ctx context.Context, layer string, s Segment) (netlist.SegmentRLC, error) {
	e, err := m.Layer(layer)
	if err != nil {
		return netlist.SegmentRLC{}, err
	}
	return e.SegmentRLCCtx(ctx, s)
}

// StackFromTechnology derives per-layer LayerTechs from a geometry
// technology stack description: each layer takes its own thickness and
// resistivity, the dielectric constant from the stack, and its
// capacitive reference at the layer below (or capFloor for the lowest
// layer). The inductive plane parameters are shared.
func StackFromTechnology(t geom.Technology, capFloor, planeGap, planeThickness float64) ([]LayerTech, error) {
	if len(t.Layers) == 0 {
		return nil, fmt.Errorf("core: technology %q has no layers", t.Name)
	}
	if t.EpsRel <= 0 {
		return nil, fmt.Errorf("core: technology %q has no dielectric constant", t.Name)
	}
	out := make([]LayerTech, 0, len(t.Layers))
	for i, l := range t.Layers {
		capHeight := capFloor
		if i > 0 {
			below := t.Layers[i-1]
			capHeight = (l.Z - l.Thickness/2) - (below.Z + below.Thickness/2)
			if capHeight <= 0 {
				return nil, fmt.Errorf("core: layers %q and %q overlap", below.Name, l.Name)
			}
		}
		out = append(out, LayerTech{
			Name: l.Name,
			Tech: Technology{
				Thickness:      l.Thickness,
				Rho:            l.Rho,
				EpsRel:         t.EpsRel,
				CapHeight:      capHeight,
				PlaneGap:       planeGap,
				PlaneThickness: planeThickness,
			},
		})
	}
	return out, nil
}
