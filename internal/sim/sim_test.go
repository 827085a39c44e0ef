package sim

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"clockrlc/internal/netlist"
)

// rcStep builds V(step)—R—node—C—gnd.
func rcStep(r, c float64) *netlist.Netlist {
	nl := netlist.New()
	nl.AddV("vin", "in", "0", netlist.DC(1))
	nl.AddR("r", "in", "out", r)
	nl.AddC("c", "out", "0", c)
	return nl
}

func TestTransientRCStepMatchesAnalytic(t *testing.T) {
	r, c := 1e3, 1e-12 // τ = 1 ns
	tau := r * c
	// Near-ideal step at t = 0 (a DC source would pre-charge the cap
	// through the DC operating point).
	nl := netlist.New()
	nl.AddV("vin", "in", "0", netlist.Ramp{V0: 0, V1: 1, Start: 0, Rise: tau / 1e4})
	nl.AddR("r", "in", "out", r)
	nl.AddC("c", "out", "0", c)
	res, err := TransientCtx(context.Background(), nl, tau/200, 6*tau, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Waveform("out")
	if err != nil {
		t.Fatal(err)
	}
	for i, tm := range res.Time {
		want := 1 - math.Exp(-tm/tau)
		if math.Abs(v[i]-want) > 3e-3 {
			t.Fatalf("RC step at t=%g: v=%g want %g", tm, v[i], want)
		}
	}
	// 50 % delay = τ·ln 2.
	d, err := DelayFromT0(res.Time, v, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(d-tau*math.Ln2) / (tau * math.Ln2); rel > 0.01 {
		t.Errorf("RC delay = %g, want %g", d, tau*math.Ln2)
	}
}

func TestTransientRLStep(t *testing.T) {
	// V(1)—R—mid—L—gnd: v(mid) = e^{−tR/L}.
	r, l := 50.0, 5e-9 // τ = 0.1 ns
	nl := netlist.New()
	nl.AddV("vin", "in", "0", netlist.DC(1))
	nl.AddR("r", "in", "mid", r)
	nl.AddL("l", "mid", "0", l)
	tau := l / r
	res, err := TransientCtx(context.Background(), nl, tau/200, 5*tau, []string{"mid"})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Waveform("mid")
	// Skip t=0 (DC operating point has the inductor fully shorted,
	// the continuous-time ideal starts the transient at v=1 for a
	// step source; with DC(1) the operating point IS the final state).
	// Use a ramp-free check instead: at DC the inductor shorts mid to
	// ground, so v must be ~0 throughout.
	for i, tm := range res.Time {
		if math.Abs(v[i]) > 1e-9 {
			t.Fatalf("DC-initialised RL: v(mid)(%g) = %g, want 0", tm, v[i])
		}
	}
	// Now with a delayed step the transient must follow e^{−t/τ}.
	nl2 := netlist.New()
	nl2.AddV("vin", "in", "0", netlist.Ramp{V0: 0, V1: 1, Start: tau, Rise: tau / 1000})
	nl2.AddR("r", "in", "mid", r)
	nl2.AddL("l", "mid", "0", l)
	res2, err := TransientCtx(context.Background(), nl2, tau/400, 6*tau, []string{"mid"})
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := res2.Waveform("mid")
	t0 := tau + tau/1000
	for i, tm := range res2.Time {
		if tm < t0+tau/50 {
			continue
		}
		want := math.Exp(-(tm - t0) / tau)
		if math.Abs(v2[i]-want) > 0.02 {
			t.Fatalf("RL decay at t=%g: v=%g want %g", tm, v2[i], want)
		}
	}
}

func TestTransientSeriesRLCRinging(t *testing.T) {
	// Series RLC step: underdamped response with
	// ωd = sqrt(1/LC − (R/2L)²), overshoot = exp(−ζπ/√(1−ζ²)).
	r, l, c := 10.0, 5e-9, 0.5e-12
	nl := netlist.New()
	nl.AddV("vin", "in", "0", netlist.Ramp{V0: 0, V1: 1, Start: 1e-12, Rise: 1e-13})
	nl.AddR("r", "in", "m", r)
	nl.AddL("l", "m", "out", l)
	nl.AddC("c", "out", "0", c)
	w0 := 1 / math.Sqrt(l*c)
	zeta := r / 2 * math.Sqrt(c/l)
	wd := w0 * math.Sqrt(1-zeta*zeta)
	period := 2 * math.Pi / wd
	res, err := TransientCtx(context.Background(), nl, period/500, 4*period, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Waveform("out")
	over, under := Overshoot(v, 0, 1)
	wantOver := math.Exp(-zeta * math.Pi / math.Sqrt(1-zeta*zeta))
	if math.Abs(over-wantOver) > 0.03 {
		t.Errorf("overshoot = %g, want %g", over, wantOver)
	}
	if under <= 0 {
		t.Error("underdamped response must undershoot after the first peak")
	}
	// Ring frequency via successive rising crossings of the final value.
	t1, err := CrossTime(res.Time, v, 1.0, true)
	if err != nil {
		t.Fatal(err)
	}
	rest := make([]float64, 0, len(v))
	var tshift []float64
	for i, tm := range res.Time {
		if tm > t1+0.6*period {
			rest = append(rest, v[i])
			tshift = append(tshift, tm)
		}
	}
	t2, err := CrossTime(tshift, rest, 1.0, true)
	if err != nil {
		t.Fatal(err)
	}
	meas := t2 - t1
	if rel := math.Abs(meas-period) / period; rel > 0.03 {
		t.Errorf("ring period = %g, want %g (rel %g)", meas, period, rel)
	}
}

func TestMutualCouplingSeriesAiding(t *testing.T) {
	// Two series inductors with aiding mutual behave as L1+L2+2M;
	// verify via the ring frequency of an RLC loop.
	l1, l2, m := 2e-9, 2e-9, 1.2e-9
	r, c := 5.0, 0.4e-12
	build := func(withK bool) *netlist.Netlist {
		nl := netlist.New()
		nl.AddV("vin", "in", "0", netlist.Ramp{V0: 0, V1: 1, Start: 1e-12, Rise: 1e-13})
		nl.AddR("r", "in", "a", r)
		i1 := nl.AddL("l1", "a", "b", l1)
		i2 := nl.AddL("l2", "b", "out", l2)
		if withK {
			nl.AddK("k", i1, i2, m)
		}
		nl.AddC("c", "out", "0", c)
		return nl
	}
	period := func(leff float64) float64 {
		w0 := 1 / math.Sqrt(leff*c)
		zeta := r / 2 * math.Sqrt(c/leff)
		return 2 * math.Pi / (w0 * math.Sqrt(1-zeta*zeta))
	}
	for _, tc := range []struct {
		withK bool
		leff  float64
	}{
		{false, l1 + l2},
		{true, l1 + l2 + 2*m},
	} {
		p := period(tc.leff)
		res, err := TransientCtx(context.Background(), build(tc.withK), p/600, 3*p, []string{"out"})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := res.Waveform("out")
		tpk, err := CrossTime(res.Time, v, 1.0, true)
		if err != nil {
			t.Fatal(err)
		}
		// First crossing of the final value occurs at roughly a
		// quarter period after the step; use it as a frequency probe.
		if tpk <= 0 || math.Abs(tpk-p/4)/(p/4) > 0.25 {
			t.Errorf("withK=%v: first crossing %g, want ≈ %g", tc.withK, tpk, p/4)
		}
	}
}

func TestTrapezoidalEnergyConservationLC(t *testing.T) {
	// Lossless LC ring: trapezoidal integration must not damp the
	// oscillation amplitude appreciably over many cycles.
	l, c := 1e-9, 1e-12
	nl := netlist.New()
	nl.AddV("vin", "in", "0", netlist.Ramp{V0: 0, V1: 1, Start: 1e-12, Rise: 1e-13})
	// A tiny series resistor keeps the DC operating point well posed.
	nl.AddR("r", "in", "m", 1e-3)
	nl.AddL("l", "m", "out", l)
	nl.AddC("c", "out", "0", c)
	period := 2 * math.Pi * math.Sqrt(l*c)
	res, err := TransientCtx(context.Background(), nl, period/300, 30*period, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Waveform("out")
	// Peak of first two cycles vs last two cycles.
	n := len(v)
	maxIn := func(seg []float64) float64 {
		m := seg[0]
		for _, x := range seg {
			if x > m {
				m = x
			}
		}
		return m
	}
	early := maxIn(v[:n/10])
	late := maxIn(v[n-n/10:])
	if late < 0.98*early {
		t.Errorf("LC ring decayed: early peak %g, late peak %g", early, late)
	}
	if early < 1.9 {
		t.Errorf("LC step must ring to ≈2 V, got %g", early)
	}
}

func TestLadderDelayConvergesWithSections(t *testing.T) {
	seg := netlist.SegmentRLC{R: 100, L: 2e-9, C: 0.8e-12}
	delay := func(sections int) float64 {
		nl := netlist.New()
		nl.AddV("vin", "src", "0", netlist.Ramp{V0: 0, V1: 1, Start: 0, Rise: 20e-12})
		nl.AddR("rdrv", "src", "in", 40)
		if _, err := nl.AddLadder("seg", "in", "out", seg, sections); err != nil {
			t.Fatal(err)
		}
		nl.AddC("cload", "out", "0", 20e-15)
		res, err := TransientCtx(context.Background(), nl, 0.2e-12, 1500e-12, []string{"out"})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := res.Waveform("out")
		d, err := DelayFromT0(res.Time, v, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d4, d8, d16 := delay(4), delay(8), delay(16)
	// Converging: successive refinements shrink the change.
	if math.Abs(d8-d16) > math.Abs(d4-d8)+1e-15 {
		t.Errorf("ladder not converging: |d8−d16|=%g > |d4−d8|=%g", math.Abs(d8-d16), math.Abs(d4-d8))
	}
	if rel := math.Abs(d8-d16) / d16; rel > 0.05 {
		t.Errorf("8 vs 16 sections delay differs by %g", rel)
	}
}

func TestTransientErrors(t *testing.T) {
	nl := rcStep(1e3, 1e-12)
	if _, err := TransientCtx(context.Background(), nl, 0, 1e-9, nil); err == nil {
		t.Error("accepted zero step")
	}
	if _, err := TransientCtx(context.Background(), nl, 1e-9, 0, nil); err == nil {
		t.Error("accepted zero tstop")
	}
	if _, err := TransientCtx(context.Background(), nl, 1e-12, 1e-9, []string{"nosuch"}); err == nil {
		t.Error("accepted unknown probe")
	}
	// Floating node: capacitor in series with capacitor leaves the
	// middle node without a DC path.
	fl := netlist.New()
	fl.AddV("v", "in", "0", netlist.DC(1))
	fl.AddC("c1", "in", "x", 1e-12)
	fl.AddC("c2", "x", "0", 1e-12)
	if _, err := TransientCtx(context.Background(), fl, 1e-12, 1e-10, nil); err == nil {
		t.Error("accepted a floating DC node")
	}
	// Invalid element.
	bad := netlist.New()
	bad.AddV("v", "in", "0", netlist.DC(1))
	bad.AddR("r", "in", "0", -5)
	if _, err := TransientCtx(context.Background(), bad, 1e-12, 1e-10, nil); err == nil {
		t.Error("accepted negative resistance")
	}
}

func TestGroundAliasProbe(t *testing.T) {
	nl := rcStep(1e3, 1e-12)
	res, err := TransientCtx(context.Background(), nl, 1e-11, 1e-9, []string{"gnd", "out"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := res.Waveform("gnd")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range g {
		if v != 0 {
			t.Fatal("ground probe must be identically zero")
		}
	}
}

// Property: an RC network driven by a bounded source is passive — no
// node voltage can leave the source's range (monotone RC ladders
// cannot overshoot).
func TestQuickRCPassivity(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		rng := seed
		next := func(lo, hi float64) float64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			u := float64((rng>>11)&0xFFFFFFFF) / float64(0xFFFFFFFF)
			return lo + u*(hi-lo)
		}
		nl := netlist.New()
		nl.AddV("v", "drv", "0", netlist.Ramp{V0: 0, V1: 1, Start: 1e-12, Rise: next(1e-12, 100e-12)})
		prev := "drv"
		sections := 2 + int(seed%4)
		for i := 0; i < sections; i++ {
			mid := "n" + string(rune('a'+i))
			nl.AddR("r"+mid, prev, mid, next(1, 500))
			nl.AddC("c"+mid, mid, "0", next(5e-15, 500e-15))
			prev = mid
		}
		res, err := TransientCtx(context.Background(), nl, 0.5e-12, 600e-12, []string{prev})
		if err != nil {
			return false
		}
		v, _ := res.Waveform(prev)
		for _, x := range v {
			if x < -1e-9 || x > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
