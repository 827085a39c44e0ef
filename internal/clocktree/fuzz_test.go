package clocktree

// Fuzz the tree construction gates. HTreeLevels and NewTree stand
// between a user's tree configuration and the stage simulations;
// whatever the fuzzer throws at them they must either reject it with
// an error or return a tree whose every field the walk can consume
// (finite, positive lengths and buffer values, a walkable depth). A
// NaN that slips past here surfaces much later as a NaN skew or a
// misleading "singular DC operating point".

import (
	"math"
	"strings"
	"testing"

	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/units"
)

func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

func FuzzNewTree(f *testing.F) {
	f.Add(2, units.Um(4000), 40.0, 50e-15, 30e-12, 100e-12, units.Um(10), units.Um(5), units.Um(1))
	f.Add(0, units.Um(4000), 40.0, 50e-15, 30e-12, 100e-12, units.Um(10), units.Um(5), units.Um(1))
	f.Add(1, units.Um(4000), 40.0, 50e-15, math.NaN(), 100e-12, units.Um(10), units.Um(5), units.Um(1))
	f.Add(3, math.Inf(1), math.NaN(), 0.0, -1.0, math.Inf(-1), 0.0, -0.0, math.NaN())
	f.Add(1<<40, units.Um(1), 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
	f.Add(-7, 1e-300, 1e300, 5e-324, 0.0, 1e-320, 1e-12, 1e-12, 1e-12)
	ext := &core.Extractor{} // NewTree never consults the tables
	f.Fuzz(func(t *testing.T, nLevels int, halfSpan, driveRes, inputCap, intrinsic, outSlew,
		wsig, wgnd, spacing float64) {
		seg := core.Segment{SignalWidth: wsig, GroundWidth: wgnd, Spacing: spacing, Shielding: geom.ShieldNone}
		buf := Buffer{DriveRes: driveRes, InputCap: inputCap, IntrinsicDelay: intrinsic, OutSlew: outSlew}
		tr, err := NewTree(HTreeLevels(halfSpan, nLevels, seg), buf, ext)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "clocktree: ") {
				t.Fatalf("rejection %q does not name its source", err)
			}
			return
		}
		b := tr.Buffer
		if !finitePositive(b.DriveRes) || !finitePositive(b.InputCap) || !finitePositive(b.OutSlew) ||
			!(b.IntrinsicDelay >= 0) || math.IsInf(b.IntrinsicDelay, 1) {
			t.Fatalf("NewTree accepted a non-physical buffer: %+v", b)
		}
		if len(tr.Levels) == 0 || len(tr.Levels) > maxLevels {
			t.Fatalf("NewTree accepted %d levels", len(tr.Levels))
		}
		for i, l := range tr.Levels {
			s := l.Segment
			for _, v := range []float64{l.TrunkLen, l.ArmLen, s.SignalWidth, s.GroundWidth, s.Spacing} {
				if !finitePositive(v) {
					t.Fatalf("NewTree accepted non-physical level %d: %+v", i, l)
				}
			}
		}
	})
}
