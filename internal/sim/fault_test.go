package sim

// Divergence guards and cancellation for the transient and AC
// engines.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"clockrlc/internal/netlist"
)

// nanAfter returns NaN past time t0 — a poisoned source that drives
// the MNA right-hand side non-finite mid-run.
type nanAfter struct{ t0 float64 }

func (w nanAfter) At(t float64) float64 {
	if t > w.t0 {
		return math.NaN()
	}
	return 1
}

func TestTransientDetectsPoisonedSource(t *testing.T) {
	nl := netlist.New()
	nl.AddV("vin", "in", "0", nanAfter{t0: 0.5e-9})
	nl.AddR("r", "in", "out", 1e3)
	nl.AddC("c", "out", "0", 1e-12)
	_, err := TransientCtx(context.Background(), nl, 1e-11, 2e-9, []string{"out"})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("want ErrDiverged, got %v", err)
	}
}

func TestTransientCtxCancelsMidRun(t *testing.T) {
	nl := netlist.New()
	nl.AddV("vin", "in", "0", netlist.Ramp{V0: 0, V1: 1, Start: 0, Rise: 1e-10})
	nl.AddR("r", "in", "out", 1e3)
	nl.AddC("c", "out", "0", 1e-12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	// A very long horizon: without the in-loop cancellation checks this
	// run would take visible wall time.
	_, err := TransientCtx(ctx, nl, 1e-13, 1e-6, []string{"out"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("cancelled transient returned after %v", took)
	}
}

func TestACCtxCancelsBetweenFrequencies(t *testing.T) {
	nl := netlist.New()
	nl.AddV("vin", "in", "0", netlist.DC(0))
	nl.AddR("r", "in", "out", 1e3)
	nl.AddC("c", "out", "0", 1e-12)
	freqs := make([]float64, 1000)
	for i := range freqs {
		freqs[i] = 1e6 * float64(i+1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ACCtx(ctx, nl, freqs, map[string]float64{"vin": 1}, []string{"out"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestDivergenceCounterMoves(t *testing.T) {
	before := simDiverged.Value()
	nl := netlist.New()
	nl.AddV("vin", "in", "0", nanAfter{t0: 0})
	nl.AddR("r", "in", "out", 1e3)
	nl.AddC("c", "out", "0", 1e-12)
	if _, err := TransientCtx(context.Background(), nl, 1e-11, 1e-9, []string{"out"}); err == nil {
		t.Fatal("poisoned run did not fail")
	}
	if simDiverged.Value() == before {
		t.Fatal("sim.diverged counter did not move")
	}
}
