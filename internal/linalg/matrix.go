// Package linalg implements the small linear-algebra kernel the
// extractor needs: real and complex matrices, LU decomposition with
// partial pivoting and linear solves.
//
// The matrices involved are modest (filament systems of a few hundred
// unknowns, MNA systems of a few thousand), so factorization is a
// straightforward dense O(n³) LU; no sparse elimination, reordering
// or blocking is attempted. What is sparse is reuse: CSR compresses a
// matrix, and SparseLU a finished factorization, to their exact
// nonzeros, so the products and triangular solves a time-stepping
// loop repeats thousands of times skip the structural zeros while
// staying bitwise equal to the dense kernels.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// numerically singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrNonFinite is returned when a matrix handed to a factorization
// contains NaN or Inf entries — the input is poisoned and no solve
// can repair it. Catching this at the gate names the offending entry
// instead of letting NaN propagate into every downstream result.
var ErrNonFinite = errors.New("linalg: non-finite matrix entry")

// ErrIllConditioned is returned when a solve produces non-finite
// values from a finite system: the factorization was numerically too
// ill-conditioned (pivot underflow/overflow) for the result to mean
// anything. Callers get a named error instead of a NaN/Inf-poisoned
// vector.
var ErrIllConditioned = errors.New("linalg: ill-conditioned system")

// checkFinite rejects matrices carrying NaN/Inf before an O(n³)
// factorization bothers to start; the scan is O(n²) and names the
// first offending element.
func checkFinite(data []float64, cols int) error {
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: element (%d,%d) = %g", ErrNonFinite, i/cols, i%cols, v)
		}
	}
	return nil
}

// Matrix is a dense row-major real matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// MulVec computes y = m·x. The receiver must be Rows×Cols with
// len(x) == Cols; the result has length Rows.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d != %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// LU holds the LU factorization of a square matrix with partial
// pivoting: P·A = L·U with the factors packed into lu and the row
// permutation in piv.
type LU struct {
	n   int
	lu  []float64
	piv []int
	// minPiv/maxPiv are the extreme |pivot| magnitudes seen during
	// elimination; their ratio is a cheap condition estimate.
	minPiv, maxPiv float64
}

// CondEstimate returns the ratio of the largest to smallest |pivot|
// of the factorization — a free lower bound on the true condition
// number. Values near 1/ε (≈ 4.5e15 for float64) mean the solve has
// no trustworthy digits left.
func (f *LU) CondEstimate() float64 {
	if f.minPiv == 0 {
		return math.Inf(1)
	}
	return f.maxPiv / f.minPiv
}

// FactorInPlace computes the LU factorization of square matrix a in
// a's own storage: the elimination overwrites a with the packed factors
// and the returned LU shares that storage, so a must be neither read as
// the original matrix nor modified while the LU is in use. It lets a
// caller factor into storage it reuses. It returns ErrSingular when a
// pivot underflows.
func FactorInPlace(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: FactorInPlace needs a square matrix, got %d×%d", a.Rows, a.Cols)
	}
	if err := checkFinite(a.Data, a.Cols); err != nil {
		return nil, err
	}
	n := a.Rows
	f := &LU{n: n, lu: a.Data, piv: make([]int, n), minPiv: math.Inf(1)}
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		// Partial pivot: find the largest |value| in column k at or
		// below the diagonal.
		p, max := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > max {
				p, max = i, v
			}
		}
		if max == 0 || math.IsNaN(max) {
			return nil, ErrSingular
		}
		if math.IsInf(max, 0) {
			// Finite input overflowed during elimination: the system is
			// numerically hopeless, not merely rank-deficient.
			return nil, fmt.Errorf("pivot overflow in column %d: %w", k, ErrIllConditioned)
		}
		if max < f.minPiv {
			f.minPiv = max
		}
		if max > f.maxPiv {
			f.maxPiv = max
		}
		if p != k {
			rowP := lu[p*n : p*n+n]
			rowK := lu[k*n : k*n+n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			rowI := lu[i*n+k+1 : i*n+n]
			rowK := lu[k*n+k+1 : k*n+n]
			for j := range rowK {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	return f, nil
}

// Solve solves A·x = b for a single right-hand side. b is not
// modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("linalg: Solve rhs length %d != %d", len(b), f.n)
	}
	n := f.n
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu[i*n : i*n+i]
		for j, v := range row {
			s -= v * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := f.lu[i*n+i+1 : i*n+n]
		for j, v := range row {
			s -= v * x[i+1+j]
		}
		d := f.lu[i*n+i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("solution component %d is %g (pivot condition estimate %.3g): %w",
				i, v, f.CondEstimate(), ErrIllConditioned)
		}
	}
	return x, nil
}
