package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// factor is FactorInPlace on a copy, leaving a intact.
func factor(a *Matrix) (*LU, error) {
	c := NewMatrix(a.Rows, a.Cols)
	copy(c.Data, a.Data)
	return FactorInPlace(c)
}

// solve factors a copy of a and solves a·x = b.
func solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

func TestFactorSolveKnownSystem(t *testing.T) {
	// 3x3 system with a hand-computed solution.
	a := NewMatrix(3, 3)
	vals := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	b := []float64{8, -11, -3}
	x, err := solve(a, b)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestFactorSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4) // row 1 = 2 * row 0
	if _, err := factor(a); err != ErrSingular {
		t.Fatalf("factor singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestFactorNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := factor(a); err == nil {
		t.Fatal("FactorInPlace accepted a non-square matrix")
	}
}

func TestSolveRhsLengthMismatch(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	f, err := factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Fatal("Solve accepted wrong-length rhs")
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 8
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		a.Add(i, i, float64(n)) // diagonally dominant, well conditioned
	}
	// Column j of a⁻¹ solves a·x = e_j.
	f, err := factor(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		e := make([]float64, n)
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range col {
			inv.Set(i, j, v)
		}
	}
	// a * inv must be the identity.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += a.At(i, k) * inv.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-10 {
				t.Fatalf("(a·a⁻¹)[%d,%d] = %g, want %g", i, j, s, want)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := NewMatrix(2, 3)
	for j := 0; j < 3; j++ {
		a.Set(0, j, float64(j+1)) // [1 2 3]
		a.Set(1, j, float64(j+4)) // [4 5 6]
	}
	y := a.MulVec([]float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Errorf("MulVec = %v, want [6 15]", y)
	}
}

// Property: for random well-conditioned systems, Solve(A, A·x) == x.
func TestQuickSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(2*n))
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
