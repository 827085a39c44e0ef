package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomSparse returns an n×n matrix with a dominant diagonal and
// about density·n² off-diagonal nonzeros, some of them −0.
func randomSparse(rng *rand.Rand, n int, density float64) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				a.Set(i, j, 0.1+rng.Float64())
			case rng.Float64() < density:
				a.Set(i, j, rng.NormFloat64())
			case rng.Intn(10) == 0:
				a.Set(i, j, math.Copysign(0, -1))
			}
		}
	}
	return a
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

func TestSparseKernelsBitwiseEqualDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(80)
		a := randomSparse(rng, n, []float64{0, 0.02, 0.1, 0.5}[trial%4])
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var csr CSR
		a.CSR(&csr)
		y := make([]float64, n)
		csr.MulVecInto(y, x)
		for i, want := range a.MulVec(x) {
			if !sameBits(y[i], want) {
				t.Fatalf("trial %d: MulVecInto[%d] = %v, dense %v", trial, i, y[i], want)
			}
		}
		f, err := factor(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.Solve(x)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		var s SparseLU
		f.Sparse(&s)
		s.SolveInto(got, x)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("trial %d (n=%d): SolveInto[%d] = %v, dense %v", trial, n, i, got[i], want[i])
			}
		}
	}
}

func TestCSRDropsOnlyZeros(t *testing.T) {
	a := NewMatrix(2, 3)
	a.Set(0, 2, 1)
	a.Set(1, 0, -2)
	a.Set(1, 1, math.Copysign(0, -1))
	a.Set(1, 2, 3)
	var c CSR
	a.CSR(&c)
	if c.NNZ() != 3 || len(c.rowPtr) != 3 {
		t.Fatalf("NNZ = %d, rowPtr = %v, want 3 nonzeros in 2 rows", c.NNZ(), c.rowPtr)
	}
	wantCols := []int{2, 0, 2}
	for k, col := range c.col {
		if col != wantCols[k] {
			t.Fatalf("col = %v, want %v", c.col, wantCols)
		}
	}
	if c.rowPtr[1] != 1 || c.rowPtr[2] != 3 {
		t.Fatalf("rowPtr = %v, want [0 1 3]", c.rowPtr)
	}
}

func TestSparseSolveDoesNotAllocate(t *testing.T) {
	a := randomSparse(rand.New(rand.NewSource(1)), 50, 0.05)
	f, err := factor(a)
	if err != nil {
		t.Fatal(err)
	}
	var s SparseLU
	var c CSR
	f.Sparse(&s)
	a.CSR(&c)
	x, b := make([]float64, 50), make([]float64, 50)
	for i := range b {
		b[i] = float64(i)
	}
	if n := testing.AllocsPerRun(10, func() {
		c.MulVecInto(x, b)
		s.SolveInto(x, b)
	}); n != 0 {
		t.Errorf("sparse product and solve allocated %v times", n)
	}
}

// sameCSR reports whether a and b hold the same rows, columns and
// value bits.
func sameCSR(a, b *CSR) bool {
	if len(a.rowPtr) != len(b.rowPtr) || len(a.col) != len(b.col) || len(a.val) != len(b.val) {
		return false
	}
	for i := range a.rowPtr {
		if a.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for k := range a.col {
		if a.col[k] != b.col[k] || math.Float64bits(a.val[k]) != math.Float64bits(b.val[k]) {
			return false
		}
	}
	return true
}

// TestReusedDestinationEqualsFresh fills one CSR and one SparseLU from
// a larger, denser matrix and then refills them from a smaller one:
// the refill must equal a fresh compression bit for bit, so nothing
// of the larger matrix's tail survives in the reused storage.
func TestReusedDestinationEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	big, small := randomSparse(rng, 60, 0.3), randomSparse(rng, 17, 0.05)
	var csr CSR
	var lu SparseLU
	for _, a := range []*Matrix{big, small} {
		a.CSR(&csr)
		f, err := factor(a)
		if err != nil {
			t.Fatal(err)
		}
		f.Sparse(&lu)
	}
	var freshCSR CSR
	small.CSR(&freshCSR)
	if !sameCSR(&csr, &freshCSR) {
		t.Errorf("reused CSR differs from a fresh one: %d nonzeros, fresh %d", csr.NNZ(), freshCSR.NNZ())
	}
	f, err := factor(small)
	if err != nil {
		t.Fatal(err)
	}
	var fresh SparseLU
	f.Sparse(&fresh)
	if !sameCSR(&lu.l, &fresh.l) || !sameCSR(&lu.u, &fresh.u) {
		t.Errorf("reused SparseLU factors differ from fresh ones")
	}
	if len(lu.piv) != len(fresh.piv) || len(lu.diag) != len(fresh.diag) {
		t.Fatalf("reused SparseLU has %d pivots and %d diagonal entries, fresh %d and %d",
			len(lu.piv), len(lu.diag), len(fresh.piv), len(fresh.diag))
	}
	for i := range fresh.piv {
		if lu.piv[i] != fresh.piv[i] || math.Float64bits(lu.diag[i]) != math.Float64bits(fresh.diag[i]) {
			t.Fatalf("row %d: reused pivot/diagonal %d/%v, fresh %d/%v", i, lu.piv[i], lu.diag[i], fresh.piv[i], fresh.diag[i])
		}
	}
	// A reused destination of sufficient size compresses without
	// allocating.
	if n := testing.AllocsPerRun(10, func() {
		small.CSR(&csr)
		f.Sparse(&lu)
	}); n != 0 {
		t.Errorf("refilling reused storage allocated %v times", n)
	}
}
