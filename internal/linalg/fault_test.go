package linalg

// Guard tests: non-finite inputs, singular systems, and overflowing
// pivots must surface as named, errors.Is-matchable failures instead
// of silent NaN/Inf solutions.

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestFactorRejectsNonFiniteInput(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, math.NaN())
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	_, err := factor(a)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("want ErrNonFinite, got %v", err)
	}
	if !strings.Contains(err.Error(), "(0,1)") {
		t.Fatalf("error %q does not locate the bad element", err)
	}
}

func TestFactorSingularIsNamed(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4) // row 1 = 2 × row 0
	if _, err := factor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestFactorPivotOverflowIsIllConditioned(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, math.MaxFloat64)
	a.Set(0, 1, math.MaxFloat64)
	a.Set(1, 0, math.MaxFloat64)
	a.Set(1, 1, -math.MaxFloat64)
	// Elimination overflows the (1,1) update to -Inf.
	if _, err := factor(a); !errors.Is(err, ErrIllConditioned) {
		t.Fatalf("want ErrIllConditioned, got %v", err)
	}
}

func TestCondEstimateTracksPivotSpread(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1e9)
	a.Set(1, 1, 1e-3)
	f, err := factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if c := f.CondEstimate(); c < 1e11 || c > 1e13 {
		t.Fatalf("CondEstimate = %g, want ~1e12", c)
	}
}

func TestFactorCRejectsNonFiniteInput(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Data[0] = 1
	a.Data[1] = complex(math.Inf(1), 0)
	a.Data[2] = 2
	a.Data[3] = 3
	if _, err := FactorC(a); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("want ErrNonFinite, got %v", err)
	}
}

func TestFactorCNaNPivotIsSingularNotGarbage(t *testing.T) {
	// A NaN produced during elimination must be caught at the pivot
	// scan rather than propagated into a garbage factorization.
	a := NewCMatrix(2, 2)
	a.Data[0] = 0
	a.Data[1] = 0
	a.Data[2] = 0
	a.Data[3] = 1
	if _, err := FactorC(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestSolveSystemNeverReturnsNonFinite(t *testing.T) {
	// Well-posed system sanity: a healthy solve must not trip the
	// post-solve finiteness guard.
	a := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, 1/float64(i+j+1)) // Hilbert 3×3: ill-ish but solvable
		}
	}
	x, err := solve(a, []float64{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("x[%d] = %g", i, v)
		}
	}
}
