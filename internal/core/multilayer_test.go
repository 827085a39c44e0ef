package core

import (
	"context"
	"math"
	"testing"

	"clockrlc/internal/geom"
	"clockrlc/internal/units"
)

func twoLayerStack() geom.Technology {
	return geom.Technology{
		Name:   "cu-2layer",
		EpsRel: units.EpsSiO2,
		Layers: []geom.Layer{
			{Name: "M5", Z: units.Um(3), Thickness: units.Um(1), Rho: units.RhoCopper},
			{Name: "M6", Z: units.Um(7), Thickness: units.Um(2), Rho: units.RhoCopper},
		},
	}
}

func TestStackFromTechnology(t *testing.T) {
	layers, err := StackFromTechnology(twoLayerStack(), units.Um(2), units.Um(2), units.Um(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != 2 {
		t.Fatalf("got %d layers", len(layers))
	}
	// M5 sits on the cap floor; M6's reference is M5's top:
	// (7 − 1) − (3 + 0.5) = 2.5 µm.
	if math.Abs(layers[0].Tech.CapHeight-units.Um(2)) > 1e-15 {
		t.Errorf("M5 cap height = %g", layers[0].Tech.CapHeight)
	}
	if math.Abs(layers[1].Tech.CapHeight-units.Um(2.5)) > 1e-15 {
		t.Errorf("M6 cap height = %g", layers[1].Tech.CapHeight)
	}
	if layers[1].Tech.Thickness != units.Um(2) {
		t.Errorf("M6 thickness = %g", layers[1].Tech.Thickness)
	}
}

func TestStackFromTechnologyRejects(t *testing.T) {
	if _, err := StackFromTechnology(geom.Technology{EpsRel: 3.9}, 1e-6, 1e-6, 1e-6); err == nil {
		t.Error("accepted empty stack")
	}
	bad := twoLayerStack()
	bad.EpsRel = 0
	if _, err := StackFromTechnology(bad, 1e-6, 1e-6, 1e-6); err == nil {
		t.Error("accepted zero permittivity")
	}
	overlap := twoLayerStack()
	overlap.Layers[1].Z = units.Um(3.5)
	if _, err := StackFromTechnology(overlap, 1e-6, 1e-6, 1e-6); err == nil {
		t.Error("accepted overlapping layers")
	}
}

func TestMultiExtractorPerLayerTables(t *testing.T) {
	layers, err := StackFromTechnology(twoLayerStack(), units.Um(2), units.Um(2), units.Um(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMultiExtractor(context.Background(), layers, fsig, testAxes(), []geom.Shielding{geom.ShieldNone})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Names(); len(got) != 2 || got[0] != "M5" || got[1] != "M6" {
		t.Fatalf("Names = %v", got)
	}
	seg := Segment{
		Length:      units.Um(2000),
		SignalWidth: units.Um(4),
		GroundWidth: units.Um(4),
		Spacing:     units.Um(1),
		Shielding:   geom.ShieldNone,
	}
	r5, err := m.SegmentRLC(context.Background(), "M5", seg)
	if err != nil {
		t.Fatal(err)
	}
	r6, err := m.SegmentRLC(context.Background(), "M6", seg)
	if err != nil {
		t.Fatal(err)
	}
	// The thicker M6 wire has lower resistance and slightly lower
	// inductance; the per-layer tables must reflect it.
	if !(r6.R < r5.R) {
		t.Errorf("thick layer R %g not below thin layer %g", r6.R, r5.R)
	}
	if !(r6.L < r5.L) {
		t.Errorf("thick layer L %g not below thin layer %g", r6.L, r5.L)
	}
	if _, err := m.Layer("M9"); err == nil {
		t.Error("returned tables for a missing layer")
	}
	if _, err := m.SegmentRLC(context.Background(), "M9", seg); err == nil {
		t.Error("extracted on a missing layer")
	}
}

func TestMultiExtractorValidation(t *testing.T) {
	if _, err := NewMultiExtractor(context.Background(), nil, fsig, testAxes(), nil); err == nil {
		t.Error("accepted empty layer list")
	}
	lt := LayerTech{Name: "", Tech: testTech()}
	if _, err := NewMultiExtractor(context.Background(), []LayerTech{lt}, fsig, testAxes(), nil); err == nil {
		t.Error("accepted anonymous layer")
	}
	a := LayerTech{Name: "M1", Tech: testTech()}
	if _, err := NewMultiExtractor(context.Background(), []LayerTech{a, a}, fsig, testAxes(),
		[]geom.Shielding{geom.ShieldNone}); err == nil {
		t.Error("accepted duplicate layer")
	}
}
