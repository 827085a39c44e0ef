package clockrlc_test

import (
	"context"
	"errors"
	"testing"

	"clockrlc"
)

// Degenerate inputs to the facade entry points — empty, nil, zero or
// non-positive counts — get a named error or their documented empty
// result, never a panic.
func TestFacadeDegenerateInputs(t *testing.T) {
	tech := clockrlc.Technology{
		Thickness: clockrlc.Um(2), Rho: clockrlc.RhoCopper,
		EpsRel: clockrlc.EpsSiO2, CapHeight: clockrlc.Um(2),
		PlaneGap: clockrlc.Um(2), PlaneThickness: clockrlc.Um(1),
	}
	axes := clockrlc.TableAxes{
		Widths:   clockrlc.LogAxis(clockrlc.Um(1), clockrlc.Um(12), 3),
		Spacings: clockrlc.LogAxis(clockrlc.Um(0.5), clockrlc.Um(10), 3),
		Lengths:  clockrlc.LogAxis(clockrlc.Um(100), clockrlc.Um(4000), 4),
	}
	freq := clockrlc.SignificantFrequency(50 * clockrlc.PicoSecond)
	ext, err := clockrlc.NewExtractor(tech, freq, axes, []clockrlc.Shielding{clockrlc.ShieldNone})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seg := clockrlc.Segment{
		Length: clockrlc.Um(2000), SignalWidth: clockrlc.Um(6), GroundWidth: clockrlc.Um(3),
		Spacing: clockrlc.Um(1), Shielding: clockrlc.ShieldNone,
	}
	zeroLen := seg
	zeroLen.Length = 0
	buf := clockrlc.ClockBuffer{DriveRes: 40, InputCap: 40e-15, IntrinsicDelay: 30e-12, OutSlew: 100e-12}
	loopOpts := clockrlc.LoopOptions{Frequency: freq}

	errCases := []struct {
		name string
		call func() error
	}{
		{"LoopMatrix(nil block)", func() error { _, err := clockrlc.LoopMatrix(nil, loopOpts); return err }},
		{"SolveLoop(nil block)", func() error { _, err := clockrlc.SolveLoop(nil, 0, loopOpts); return err }},
		{"MonteCarlo(n=1)", func() error {
			v := clockrlc.ProcessVariation{EdgeBiasSigma: 0.03e-6, ThicknessSigma: 0.05, HeightSigma: 0.05}
			_, _, _, err := clockrlc.MonteCarlo(ext, seg, v, 1, 1)
			return err
		}},
		{"MonteCarlo(n=0)", func() error {
			v := clockrlc.ProcessVariation{EdgeBiasSigma: 0.03e-6, ThicknessSigma: 0.05, HeightSigma: 0.05}
			_, _, _, err := clockrlc.MonteCarlo(ext, seg, v, 0, 1)
			return err
		}},
		{"OptimizeRepeaters(maxN=0)", func() error {
			spec := clockrlc.RepeaterSpec{Line: seg, Buffer: clockrlc.RepeaterBuffer{
				DriveRes: 30, InputCap: 40e-15, IntrinsicDelay: 8e-12, OutSlew: 50e-12}}
			_, _, err := clockrlc.OptimizeRepeaters(ext, spec, 0)
			return err
		}},
		{"OptimizeRepeaters(maxN=-3)", func() error {
			spec := clockrlc.RepeaterSpec{Line: seg, Buffer: clockrlc.RepeaterBuffer{
				DriveRes: 30, InputCap: 40e-15, IntrinsicDelay: 8e-12, OutSlew: 50e-12}}
			_, _, err := clockrlc.OptimizeRepeaters(ext, spec, -3)
			return err
		}},
		{"SegmentRLCCtx(zero length)", func() error {
			_, err := ext.SegmentRLCCtx(ctx, zeroLen)
			if !errors.Is(err, clockrlc.BadGeometry) {
				t.Errorf("zero-length segment: %v is not BadGeometry", err)
			}
			return err
		}},
		{"SegmentsRLCCtx(zero length)", func() error {
			_, err := ext.SegmentsRLCCtx(ctx, []clockrlc.Segment{seg, zeroLen})
			return err
		}},
		{"NewClockTree(HTreeLevels(…, 0))", func() error {
			_, err := clockrlc.NewClockTree(clockrlc.HTreeLevels(clockrlc.Um(4000), 0, seg), buf, ext)
			return err
		}},
		{"NewClockTree(zero half-span)", func() error {
			_, err := clockrlc.NewClockTree(clockrlc.HTreeLevels(0, 2, seg), buf, ext)
			return err
		}},
		{"Transient(empty netlist)", func() error {
			_, err := clockrlc.Transient(clockrlc.NewNetlist(), 1e-12, 1e-10, nil)
			return err
		}},
		{"ACAnalysis(no frequencies)", func() error {
			nl := clockrlc.NewNetlist()
			nl.AddV("v", "in", "0", clockrlc.Ramp{V1: 1, Rise: 1e-11})
			nl.AddR("r", "in", "0", 50)
			_, err := clockrlc.ACAnalysis(nl, nil, map[string]float64{"v": 1}, []string{"in"})
			return err
		}},
	}
	for _, tc := range errCases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); err == nil {
				t.Fatal("accepted a degenerate input")
			}
		})
	}

	t.Run("SegmentsRLCCtx(empty batch)", func(t *testing.T) {
		out, err := ext.SegmentsRLCCtx(ctx, nil)
		if err != nil || len(out) != 0 {
			t.Fatalf("empty batch = %d results, %v; want none, nil", len(out), err)
		}
	})
	t.Run("LoopLBatchCtx(empty batch)", func(t *testing.T) {
		out, err := ext.LoopLBatchCtx(ctx, []clockrlc.Segment{})
		if err != nil || len(out) != 0 {
			t.Fatalf("empty batch = %d results, %v; want none, nil", len(out), err)
		}
	})
}
