package elmore

import (
	"context"
	"math"
	"testing"

	"clockrlc/internal/netlist"
	"clockrlc/internal/sim"
)

// simDelay measures the 50 % delay of the configuration with the MNA
// simulator (ideal step at t = 0+).
func simDelay(t *testing.T, l Line, sections int) float64 {
	t.Helper()
	nl := netlist.New()
	rise := 1e-13
	nl.AddV("v", "drv", "0", netlist.Ramp{V0: 0, V1: 1, Start: 1e-12, Rise: rise})
	nl.AddR("rd", "drv", "in", l.Rd)
	if _, err := nl.AddLadder("w", "in", "out", netlist.SegmentRLC{R: l.R, L: l.L, C: l.C}, sections); err != nil {
		t.Fatal(err)
	}
	if l.Cl > 0 {
		nl.AddC("cl", "out", "0", l.Cl)
	}
	res, err := sim.TransientCtx(context.Background(), nl, 0.1e-12, 2000e-12, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Waveform("out")
	d, err := sim.DelayFromT0(res.Time, v, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d - (1e-12 + rise/2)
}

func TestElmoreDelayAgainstSimulation(t *testing.T) {
	// Overdamped RC-dominated lines: Elmore within its classic ~±25 %.
	cases := []Line{
		{Rd: 40, R: 5, C: 1e-12, Cl: 50e-15},
		{Rd: 100, R: 50, C: 0.5e-12, Cl: 20e-15},
		{Rd: 20, R: 200, C: 2e-12, Cl: 10e-15},
	}
	for _, l := range cases {
		l.L = 0
		est, err := ElmoreDelay(l)
		if err != nil {
			t.Fatal(err)
		}
		meas := simDelay(t, l, 12)
		if rel := math.Abs(est-meas) / meas; rel > 0.25 {
			t.Errorf("%+v: Elmore %g vs sim %g (rel %g)", l, est, meas, rel)
		}
	}
}

func TestTwoPoleDelayAgainstSimulation(t *testing.T) {
	// RLC lines across damping regimes.
	cases := []Line{
		{Rd: 40, R: 5, L: 2e-9, C: 1e-12, Cl: 50e-15},   // near critical
		{Rd: 25, R: 4, L: 4e-9, C: 0.8e-12, Cl: 30e-15}, // underdamped
		{Rd: 120, R: 30, L: 1e-9, C: 1e-12, Cl: 50e-15}, // overdamped
	}
	for _, l := range cases {
		est, err := TwoPoleDelay(l)
		if err != nil {
			t.Fatal(err)
		}
		meas := simDelay(t, l, 12)
		if rel := math.Abs(est-meas) / meas; rel > 0.30 {
			zeta, _ := DampingRatio(l)
			t.Errorf("%+v (ζ=%.2f): two-pole %g vs sim %g (rel %g)", l, zeta, est, meas, rel)
		}
	}
}

func TestTwoPoleBeatsElmoreForInductiveLines(t *testing.T) {
	// The reason RLC extraction matters: for an underdamped line the
	// RC (Elmore) estimate errs far more than the two-pole RLC one.
	l := Line{Rd: 25, R: 4, L: 4e-9, C: 0.8e-12, Cl: 30e-15}
	meas := simDelay(t, l, 12)
	rc := l
	rc.L = 0
	elm, err := ElmoreDelay(rc)
	if err != nil {
		t.Fatal(err)
	}
	two, err := TwoPoleDelay(l)
	if err != nil {
		t.Fatal(err)
	}
	errElm := math.Abs(elm - meas)
	errTwo := math.Abs(two - meas)
	if errTwo >= errElm {
		t.Errorf("two-pole error %g not below Elmore error %g (sim %g)", errTwo, errElm, meas)
	}
}

func TestDampingAndFlight(t *testing.T) {
	l := Line{Rd: 40, R: 5, L: 2e-9, C: 1e-12, Cl: 0}
	z, err := DampingRatio(l)
	if err != nil {
		t.Fatal(err)
	}
	want := (40 + 2.5) / 2 * math.Sqrt(1e-12/2e-9)
	if math.Abs(z-want) > 1e-12 {
		t.Errorf("ζ = %g, want %g", z, want)
	}
	if tof := TimeOfFlight(l); math.Abs(tof-math.Sqrt(2e-9*1e-12)) > 1e-18 {
		t.Errorf("tof = %g", tof)
	}
	rcOnly := l
	rcOnly.L = 0
	if z, _ := DampingRatio(rcOnly); !math.IsInf(z, 1) {
		t.Errorf("RC line ζ = %g, want +Inf", z)
	}
	if TimeOfFlight(rcOnly) != 0 {
		t.Error("RC line has no time of flight")
	}
}

func TestValidation(t *testing.T) {
	if _, err := ElmoreDelay(Line{}); err == nil {
		t.Error("accepted zero line")
	}
	if _, err := TwoPoleDelay(Line{Rd: 1, R: 1, C: 1e-12}); err == nil {
		t.Error("TwoPoleDelay accepted L = 0")
	}
	if _, err := DampingRatio(Line{Rd: -1, R: 1, C: 1e-12}); err == nil {
		t.Error("DampingRatio accepted negative Rd")
	}
}
