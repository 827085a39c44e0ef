package sim

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"clockrlc/internal/netlist"
)

func TestACRCLowpass(t *testing.T) {
	r, c := 1e3, 1e-12
	nl := netlist.New()
	nl.AddV("vin", "in", "0", netlist.DC(0))
	nl.AddR("r", "in", "out", r)
	nl.AddC("c", "out", "0", c)
	fc := 1 / (2 * math.Pi * r * c)
	freqs := []float64{fc / 100, fc / 10, fc, 10 * fc, 100 * fc}
	res, err := ACCtx(context.Background(), nl, freqs, map[string]float64{"vin": 1}, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	mag, err := res.Mag("out")
	if err != nil {
		t.Fatal(err)
	}
	ph, err := res.PhaseDeg("out")
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range freqs {
		wrc := 2 * math.Pi * f * r * c
		want := 1 / math.Sqrt(1+wrc*wrc)
		if rel := math.Abs(mag[i]-want) / want; rel > 1e-9 {
			t.Errorf("f=%g: |H| = %g, want %g", f, mag[i], want)
		}
		wantPh := -math.Atan(wrc) * 180 / math.Pi
		if math.Abs(ph[i]-wantPh) > 1e-6 {
			t.Errorf("f=%g: phase = %g, want %g", f, ph[i], wantPh)
		}
	}
}

func TestACSeriesRLCResonance(t *testing.T) {
	r, l, c := 2.0, 5e-9, 2e-12
	nl := netlist.New()
	nl.AddV("vin", "in", "0", netlist.DC(0))
	nl.AddR("r", "in", "a", r)
	nl.AddL("l", "a", "out", l)
	nl.AddC("c", "out", "0", c)
	f0 := 1 / (2 * math.Pi * math.Sqrt(l*c))
	q := math.Sqrt(l/c) / r
	res, err := ACCtx(context.Background(), nl, []float64{f0}, map[string]float64{"vin": 1}, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	mag, _ := res.Mag("out")
	// At resonance the cap voltage magnifies to ~Q.
	if rel := math.Abs(mag[0]-q) / q; rel > 1e-6 {
		t.Errorf("|V(out)| at f0 = %g, want Q = %g", mag[0], q)
	}
}

func TestACInputImpedance(t *testing.T) {
	// A plain resistor load: Zin = R at any frequency.
	nl := netlist.New()
	nl.AddV("vin", "in", "0", netlist.DC(0))
	nl.AddR("r", "in", "0", 123)
	res, err := ACCtx(context.Background(), nl, []float64{1e6, 1e9}, map[string]float64{"vin": 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	z, err := res.InputImpedance("vin", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range z {
		if cmplx.Abs(v-123) > 1e-9 {
			t.Errorf("Zin[%d] = %v, want 123", i, v)
		}
	}
	// An inductor load: Zin = jωL.
	nl2 := netlist.New()
	nl2.AddV("vin", "in", "0", netlist.DC(0))
	nl2.AddR("rs", "in", "m", 1e-6)
	nl2.AddL("l", "m", "0", 1e-9)
	res2, err := ACCtx(context.Background(), nl2, []float64{1e9}, map[string]float64{"vin": 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	z2, _ := res2.InputImpedance("vin", 1)
	want := complex(0, 2*math.Pi*1e9*1e-9)
	if cmplx.Abs(z2[0]-want) > 1e-3*cmplx.Abs(want) {
		t.Errorf("Zin = %v, want %v", z2[0], want)
	}
}

func TestACUndrivenSourceIsShort(t *testing.T) {
	// Voltage divider with the lower source AC-grounded: plain divider.
	nl := netlist.New()
	nl.AddV("vin", "in", "0", netlist.DC(0))
	nl.AddV("vbias", "b", "0", netlist.DC(1))
	nl.AddR("r1", "in", "out", 100)
	nl.AddR("r2", "out", "b", 100)
	res, err := ACCtx(context.Background(), nl, []float64{1e6}, map[string]float64{"vin": 1}, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	mag, _ := res.Mag("out")
	if math.Abs(mag[0]-0.5) > 1e-12 {
		t.Errorf("divider |V| = %g, want 0.5", mag[0])
	}
}

func TestACErrors(t *testing.T) {
	nl := netlist.New()
	nl.AddV("vin", "in", "0", netlist.DC(0))
	nl.AddR("r", "in", "0", 10)
	if _, err := ACCtx(context.Background(), nl, nil, map[string]float64{"vin": 1}, nil); err == nil {
		t.Error("accepted empty frequency list")
	}
	if _, err := ACCtx(context.Background(), nl, []float64{0}, map[string]float64{"vin": 1}, nil); err == nil {
		t.Error("accepted zero frequency")
	}
	if _, err := ACCtx(context.Background(), nl, []float64{1e6}, map[string]float64{"nosuch": 1}, nil); err == nil {
		t.Error("accepted unknown AC source")
	}
	if _, err := ACCtx(context.Background(), nl, []float64{1e6}, nil, []string{"nosuch"}); err == nil {
		t.Error("accepted unknown probe")
	}
	res, err := ACCtx(context.Background(), nl, []float64{1e6}, map[string]float64{"vin": 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Mag("never"); err == nil {
		t.Error("Mag accepted unprobed node")
	}
	if _, err := res.InputImpedance("never", 1); err == nil {
		t.Error("InputImpedance accepted undriven source")
	}
}

func TestACMutualCouplingTransformer(t *testing.T) {
	// A 1:1 transformer with k ≈ 1 driving a resistor: at high
	// frequency the secondary voltage approaches k·V.
	l1, l2 := 10e-9, 10e-9
	k := 0.95
	m := k * math.Sqrt(l1*l2)
	nl := netlist.New()
	nl.AddV("vin", "in", "0", netlist.DC(0))
	nl.AddR("rs", "in", "p", 1e-3)
	i1 := nl.AddL("lp", "p", "0", l1)
	i2 := nl.AddL("ls", "s", "0", l2)
	nl.AddK("k", i1, i2, m)
	nl.AddR("rl", "s", "0", 1e6)
	res, err := ACCtx(context.Background(), nl, []float64{10e9}, map[string]float64{"vin": 1}, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	mag, _ := res.Mag("s")
	if math.Abs(mag[0]-k) > 0.01 {
		t.Errorf("secondary |V| = %g, want ≈ k = %g", mag[0], k)
	}
}
