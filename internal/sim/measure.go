package sim

import (
	"errors"
	"fmt"
	"math"

	"clockrlc/internal/check"
)

// checkDelay reports a measured delay that came out non-finite or
// negative through an armed check engine. A negative source-to-sink
// delay is physically impossible for these passive RLC networks — the
// sink cannot lead its driver — so it means the waveforms themselves
// are wrong (e.g. a diverged integration that slipped through).
func checkDelay(what string, d float64) error {
	eng := check.Active()
	if !eng.Armed() {
		return nil
	}
	if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		return eng.Report(&check.Violation{
			Stage: check.StageSim, Invariant: "delay finite and non-negative",
			Subject: what, Detail: fmt.Sprintf("delay = %g s", d),
		})
	}
	return nil
}

// ErrNeverCrosses is returned when a waveform never reaches the level
// asked for within the simulated horizon.
var ErrNeverCrosses = errors.New("sim: waveform never crosses")

// CrossTime returns the first time the waveform crosses level in the
// given direction (rising: from below to at-or-above), using linear
// interpolation between samples. It returns ErrNeverCrosses when the
// waveform never crosses.
func CrossTime(t, v []float64, level float64, rising bool) (float64, error) {
	if len(t) != len(v) {
		return 0, fmt.Errorf("sim: CrossTime length mismatch %d vs %d", len(t), len(v))
	}
	if len(t) < 2 {
		return 0, errors.New("sim: CrossTime needs at least two samples")
	}
	for i := 1; i < len(t); i++ {
		if tc, ok := crossing(t[i-1], t[i], v[i-1], v[i], level, rising); ok {
			return tc, nil
		}
	}
	return 0, fmt.Errorf("%w %g", ErrNeverCrosses, level)
}

// crossing reports whether the sample pair (t0, a) → (t1, b) crosses
// level in the given direction and, if so, the linearly interpolated
// crossing time. CrossTime and the streaming DelaysFromT0Ctx both call
// it, so a streamed delay is bitwise equal to one measured on the
// recorded waveform.
func crossing(t0, t1, a, b, level float64, rising bool) (float64, bool) {
	var hit bool
	if rising {
		hit = a < level && b >= level
	} else {
		hit = a > level && b <= level
	}
	if !hit {
		return 0, false
	}
	if b == a {
		return t1, true
	}
	f := (level - a) / (b - a)
	return t0 + f*(t1-t0), true
}

// Delay50 returns the 50 %-swing delay from waveform "from" to
// waveform "to", both sharing time axis t, for a transition from v0 to
// v1. This is the paper's delay metric (buffer output to sink).
func Delay50(t, from, to []float64, v0, v1 float64) (float64, error) {
	level := v0 + 0.5*(v1-v0)
	rising := v1 > v0
	t1, err := CrossTime(t, from, level, rising)
	if err != nil {
		return 0, fmt.Errorf("sim: source waveform: %w", err)
	}
	t2, err := CrossTime(t, to, level, rising)
	if err != nil {
		return 0, fmt.Errorf("sim: sink waveform: %w", err)
	}
	d := t2 - t1
	if err := checkDelay("Delay50", d); err != nil {
		return 0, err
	}
	return d, nil
}

// DelayFromT0 returns the time the waveform first reaches the 50 %
// level of a v0→v1 transition, measured from t = 0.
func DelayFromT0(t, v []float64, v0, v1 float64) (float64, error) {
	d, err := CrossTime(t, v, v0+0.5*(v1-v0), v1 > v0)
	if err != nil {
		return 0, err
	}
	if err := checkDelay("DelayFromT0", d); err != nil {
		return 0, err
	}
	return d, nil
}

// Overshoot returns the fractional overshoot of a waveform settling to
// final value vf from below: (max − vf)/|swing|. Zero when the
// waveform never exceeds vf. The undershoot of the subsequent ring is
// (vf − min after the peak)/|swing|, returned second.
func Overshoot(v []float64, v0, vf float64) (over, under float64) {
	swing := math.Abs(vf - v0)
	if swing == 0 || len(v) == 0 {
		return 0, 0
	}
	maxV := v[0]
	maxAt := 0
	for i, x := range v {
		if x > maxV {
			maxV, maxAt = x, i
		}
	}
	if maxV > vf {
		over = (maxV - vf) / swing
	}
	minAfter := maxV
	for _, x := range v[maxAt:] {
		if x < minAfter {
			minAfter = x
		}
	}
	if over > 0 && minAfter < vf {
		under = (vf - minAfter) / swing
	}
	return over, under
}

// RiseTime returns the 10 %–90 % rise time of a v0→v1 transition.
func RiseTime(t, v []float64, v0, v1 float64) (float64, error) {
	lo := v0 + 0.1*(v1-v0)
	hi := v0 + 0.9*(v1-v0)
	rising := v1 > v0
	t10, err := CrossTime(t, v, lo, rising)
	if err != nil {
		return 0, err
	}
	t90, err := CrossTime(t, v, hi, rising)
	if err != nil {
		return 0, err
	}
	return t90 - t10, nil
}

// Skew returns max − min over a set of delays, plus the index of the
// earliest and latest arrival.
func Skew(delays []float64) (skew float64, earliest, latest int) {
	if len(delays) == 0 {
		return 0, -1, -1
	}
	earliest, latest = 0, 0
	for i, d := range delays {
		if d < delays[earliest] {
			earliest = i
		}
		if d > delays[latest] {
			latest = i
		}
	}
	return delays[latest] - delays[earliest], earliest, latest
}
