package bus

import (
	"context"
	"math"
	"sync"
	"testing"

	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

var (
	once sync.Once
	ext  *core.Extractor
	eErr error
)

func extractor(t *testing.T) *core.Extractor {
	t.Helper()
	once.Do(func() {
		tech := core.Technology{
			Thickness:      units.Um(2),
			Rho:            units.RhoCopper,
			EpsRel:         units.EpsSiO2,
			CapHeight:      units.Um(2),
			PlaneGap:       units.Um(2),
			PlaneThickness: units.Um(1),
		}
		axes := table.Axes{
			Widths:   table.LogAxis(units.Um(0.8), units.Um(6), 3),
			Spacings: table.LogAxis(units.Um(0.5), units.Um(4), 3),
			Lengths:  table.LogAxis(units.Um(400), units.Um(4000), 3),
		}
		ext, eErr = core.NewExtractorCtx(context.Background(), tech, 6.4e9, axes, []geom.Shielding{geom.ShieldNone})
	})
	if eErr != nil {
		t.Fatal(eErr)
	}
	return ext
}

func fiveBitBus() Spec {
	return Spec{
		N:           5,
		Length:      units.Um(1500),
		SignalWidth: units.Um(2),
		GroundWidth: units.Um(2),
		Spacing:     units.Um(1),
		Sections:    5,
	}
}

func TestAdjacentAggressorInjectsNoise(t *testing.T) {
	res, err := Noise(context.Background(), extractor(t), fiveBitBus(), []int{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Peak[2] > 0.01) {
		t.Errorf("adjacent aggressor noise %.4f V implausibly small", res.Peak[2])
	}
	if !(res.Peak[2] < 0.5) {
		t.Errorf("adjacent aggressor noise %.4f V implausibly large", res.Peak[2])
	}
	// Noise decays across the bus.
	if !(res.Peak[2] > res.Peak[3] && res.Peak[3] > res.Peak[4]) {
		t.Errorf("noise not decaying across the bus: %v", res.Peak)
	}
	if len(res.V) == 0 {
		t.Error("probe waveform missing")
	}
}

// Superposition: the circuit is linear, so the noise from aggressors
// {0} and {4} switching together equals the sum of their individual
// contributions at every victim.
func TestSuperposition(t *testing.T) {
	e := extractor(t)
	spec := fiveBitBus()
	a0, err := Noise(context.Background(), e, spec, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	a4, err := Noise(context.Background(), e, spec, []int{4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	both, err := Noise(context.Background(), e, spec, []int{0, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Compare waveforms point-wise (peaks of sums need not add, but
	// the waveforms must).
	if len(a0.V) != len(both.V) || len(a4.V) != len(both.V) {
		t.Fatal("waveform length mismatch")
	}
	var maxErr, scale float64
	for i := range both.V {
		sum := a0.V[i] + a4.V[i]
		if d := math.Abs(both.V[i] - sum); d > maxErr {
			maxErr = d
		}
		if a := math.Abs(both.V[i]); a > scale {
			scale = a
		}
	}
	if maxErr > 1e-6+1e-6*scale {
		t.Errorf("superposition violated: max deviation %g (scale %g)", maxErr, scale)
	}
}

// Symmetry: victims equidistant from a central aggressor see the same
// noise.
func TestSymmetricNeighbours(t *testing.T) {
	res, err := Noise(context.Background(), extractor(t), fiveBitBus(), []int{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Peak[1]-res.Peak[3]) / res.Peak[1]; rel > 1e-6 {
		t.Errorf("asymmetric noise around central aggressor: %v", res.Peak)
	}
	if rel := math.Abs(res.Peak[0]-res.Peak[4]) / res.Peak[0]; rel > 1e-6 {
		t.Errorf("asymmetric far noise: %v", res.Peak)
	}
}

// A middle victim with everyone else switching collects more noise
// than an edge victim in the same storm (edge wires sit next to a
// shield).
func TestMiddleVictimWorstCase(t *testing.T) {
	e := extractor(t)
	spec := fiveBitBus()
	mid, err := Noise(context.Background(), e, spec, []int{0, 1, 3, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := Noise(context.Background(), e, spec, []int{1, 2, 3, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(mid.Peak[2] > edge.Peak[0]) {
		t.Errorf("middle victim %.4f not above edge victim %.4f", mid.Peak[2], edge.Peak[0])
	}
}

func TestBusValidation(t *testing.T) {
	e := extractor(t)
	bad := fiveBitBus()
	bad.N = 0
	if _, err := Noise(context.Background(), e, bad, nil, 0); err == nil {
		t.Error("accepted empty bus")
	}
	if _, err := Noise(context.Background(), e, fiveBitBus(), []int{9}, 0); err == nil {
		t.Error("accepted out-of-range aggressor")
	}
	if _, err := Noise(context.Background(), e, fiveBitBus(), []int{2}, 2); err == nil {
		t.Error("accepted aggressor as probe victim")
	}
	if _, err := Noise(context.Background(), e, fiveBitBus(), []int{1}, 7); err == nil {
		t.Error("accepted out-of-range probe")
	}
	bad = fiveBitBus()
	bad.Spacing = 0
	if _, err := Noise(context.Background(), e, bad, []int{1}, 2); err == nil {
		t.Error("accepted zero spacing")
	}
}
