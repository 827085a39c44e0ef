package peec

import (
	"math"

	"clockrlc/internal/units"
)

// MutualFilaments returns the mutual partial inductance (H) between
// two parallel filaments a distance d apart (perpendicular distance
// between their carrier lines). The first spans [a0, a1] and the
// second [b0, b1] along their common axial coordinate; arbitrary
// overlap/offset is allowed.
//
// The closed form is the classic Neumann-integral result
//
//	M = (µ0/4π) [ F(b1−a0) − F(b1−a1) − F(b0−a0) + F(b0−a1) ]
//	F(x) = x·asinh(x/d) − sqrt(x² + d²)
//
// For d = 0 (collinear filaments) the divergent parts cancel whenever
// the segments do not overlap, leaving F(x) = x·ln|x| − |x| (with
// F(0) = 0); overlapping collinear filaments have infinite mutual
// inductance and return +Inf.
func MutualFilaments(a0, a1, b0, b1, d float64) float64 {
	if a1 < a0 {
		a0, a1 = a1, a0
	}
	if b1 < b0 {
		b0, b1 = b1, b0
	}
	if d < 0 {
		d = -d
	}
	if d == 0 {
		// Collinear: require disjoint (touching allowed).
		if a1 > b0 && b1 > a0 {
			return math.Inf(1)
		}
		f := func(x float64) float64 {
			ax := math.Abs(x)
			if ax == 0 {
				return 0
			}
			return ax*math.Log(ax) - ax
		}
		return units.Mu0 / (4 * math.Pi) *
			(f(b1-a0) - f(b1-a1) - f(b0-a0) + f(b0-a1))
	}
	f := func(x float64) float64 {
		return x*math.Asinh(x/d) - math.Hypot(x, d)
	}
	return units.Mu0 / (4 * math.Pi) *
		(f(b1-a0) - f(b1-a1) - f(b0-a0) + f(b0-a1))
}

// MutualFilamentsAligned is the common special case of two equal-length
// filaments with aligned ends at distance d:
//
//	M = (µ0 l/2π)(asinh(l/d) − sqrt(1 + d²/l²) + d/l)
func MutualFilamentsAligned(l, d float64) float64 {
	return units.Mu0 / (2 * math.Pi) *
		(l*math.Asinh(l/d) - math.Hypot(l, d) + d)
}

// GMDSelf returns the geometric mean distance of a rectangular w×t
// cross section from itself, Grover's approximation 0.2235(w+t).
// Replacing a bar with a filament at this self-GMD reproduces the
// bar's self partial inductance to ~1 % for l ≫ w+t.
func GMDSelf(w, t float64) float64 {
	return 0.2235 * (w + t)
}

// SelfGMD returns the approximate self partial inductance of a
// rectangular bar of length l, width w and thickness t using the
// self-GMD filament substitution.
func SelfGMD(l, w, t float64) float64 {
	return MutualFilamentsAligned(l, GMDSelf(w, t))
}

// SelfRuehli returns Ruehli's well-known logarithmic approximation for
// the partial self inductance of a thin rectangular bar,
//
//	Lp ≈ (µ0 l/2π) [ ln(2l/(w+t)) + 1/2 + 0.2235(w+t)/l ]
//
// valid for l ≳ w+t. It is used in tests as an independent reference
// for the exact Hoer–Love evaluation.
func SelfRuehli(l, w, t float64) float64 {
	u := w + t
	return units.Mu0 * l / (2 * math.Pi) *
		(math.Log(2*l/u) + 0.5 + 0.2235*u/l)
}
