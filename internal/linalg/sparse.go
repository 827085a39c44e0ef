package linalg

import "fmt"

// CSR is a compressed-sparse-row matrix holding only the exact
// nonzeros of each row, in ascending column order. Row i occupies
// col[rowPtr[i]:rowPtr[i+1]] and the matching val range.
//
// Dropping only ±0 entries and keeping the column order is what makes
// the sparse kernels below bitwise equal to their dense counterparts:
// a dense accumulation adds the same nonzero products in the same
// order, and adding a ±0 product to a running sum that started at +0
// never changes it.
type CSR struct {
	rowPtr []int
	col    []int
	val    []float64
}

// appendRow appends the nonzeros of row, whose first element sits in
// column c0, as the next CSR row.
func (a *CSR) appendRow(row []float64, c0 int) {
	for j, v := range row {
		if v != 0 {
			a.col = append(a.col, c0+j)
			a.val = append(a.val, v)
		}
	}
	a.rowPtr = append(a.rowPtr, len(a.val))
}

// reset empties a for refilling, keeping its storage.
func (a *CSR) reset() {
	a.rowPtr = append(a.rowPtr[:0], 0)
	a.col = a.col[:0]
	a.val = a.val[:0]
}

// CSR compresses m to its exact nonzeros into dst, overwriting what dst
// held and reusing its storage, so a caller that compresses matrices
// of one size over and over allocates only while dst grows.
func (m *Matrix) CSR(dst *CSR) {
	dst.reset()
	for i := 0; i < m.Rows; i++ {
		dst.appendRow(m.Data[i*m.Cols:(i+1)*m.Cols], 0)
	}
}

// NNZ returns the number of stored nonzeros.
func (a *CSR) NNZ() int { return len(a.val) }

// MulVecInto sets y = a·x without allocating. For finite x the result
// is bitwise equal to the dense Matrix.MulVec of the same matrix.
func (a *CSR) MulVecInto(y, x []float64) {
	for i := range len(a.rowPtr) - 1 {
		lo, hi := a.rowPtr[i], a.rowPtr[i+1]
		cols, vals := a.col[lo:hi], a.val[lo:hi]
		s := 0.0
		for k, v := range vals {
			s += v * x[cols[k]]
		}
		y[i] = s
	}
}

// SparseLU is an LU factorization compressed for repeated solves: the
// strict lower factor L (unit diagonal implied) and the strict upper
// factor U as CSR rows, U's diagonal and the row permutation. These
// are exactly the entries LU.Solve reads, minus its zeros; the pivots
// and the elimination are LU's own, so no fill-reducing reorder is
// applied and rounding is unchanged.
type SparseLU struct {
	piv  []int
	l, u CSR
	diag []float64
}

// Sparse compresses the factorization into dst for SparseLU.SolveInto,
// overwriting what dst held and reusing its storage as CSR does.
func (f *LU) Sparse(dst *SparseLU) {
	n := f.n
	dst.piv = append(dst.piv[:0], f.piv...)
	dst.l.reset()
	dst.u.reset()
	dst.diag = dst.diag[:0]
	for i := 0; i < n; i++ {
		row := f.lu[i*n : (i+1)*n]
		dst.l.appendRow(row[:i], 0)
		dst.u.appendRow(row[i+1:], i+1)
		dst.diag = append(dst.diag, row[i])
	}
}

// NNZ returns the stored nonzeros of L and U, U's diagonal included.
func (f *SparseLU) NNZ() int { return f.l.NNZ() + f.u.NNZ() + len(f.diag) }

// SolveInto solves A·x = b into x without allocating; x must not
// alias b. It performs LU.Solve's permuted forward and back
// substitutions over the nonzeros only, so for finite b the solution
// is bitwise equal to LU.Solve's up to the sign of zero components.
// Unlike Solve it does not scan the result: a caller stepping in a
// loop checks finiteness once, with its own error.
func (f *SparseLU) SolveInto(x, b []float64) {
	n := len(f.diag)
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: SolveInto lengths %d, %d != %d", len(x), len(b), n))
	}
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		lo, hi := f.l.rowPtr[i], f.l.rowPtr[i+1]
		cols, vals := f.l.col[lo:hi], f.l.val[lo:hi]
		s := x[i]
		for k, v := range vals {
			s -= v * x[cols[k]]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		lo, hi := f.u.rowPtr[i], f.u.rowPtr[i+1]
		cols, vals := f.u.col[lo:hi], f.u.val[lo:hi]
		s := x[i]
		for k, v := range vals {
			s -= v * x[cols[k]]
		}
		x[i] = s / f.diag[i]
	}
}
