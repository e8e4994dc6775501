package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func eyeC(n int) *CMatrix {
	m := NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Multiplying by the identity is exact: every product is a·1 or a skipped
// zero, so A·I and I·A reproduce A bit for bit.
func TestGemmIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randCMatrix(rng, 17, 17)
	c := NewCMatrix(17, 17)
	CGemm(a, eyeC(17), c)
	if !cEqualish(a, c, 0) {
		t.Fatal("A*I != A")
	}
	CGemm(eyeC(17), a, c)
	if !cEqualish(a, c, 0) {
		t.Fatal("I*A != A")
	}
}

// Property: (A*B)*C == A*(B*C) for random small matrices.
func TestGemmAssociativityProperty(t *testing.T) {
	mul := func(a, b *CMatrix) *CMatrix {
		c := NewCMatrix(a.Rows, b.Cols)
		CGemm(a, b, c)
		return c
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		m := 1 + rng.Intn(12)
		p := 1 + rng.Intn(12)
		q := 1 + rng.Intn(12)
		a := randCMatrix(rng, n, m)
		b := randCMatrix(rng, m, p)
		c := randCMatrix(rng, p, q)
		return cEqualish(mul(mul(a, b), c), mul(a, mul(b, c)), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: A†B is the adjoint of B†A, and A†(BC) = (A†B)C.
func TestTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(10)
		c := 1 + rng.Intn(10)
		k := 1 + rng.Intn(10)
		a := randCMatrix(rng, r, c)
		b := randCMatrix(rng, r, k)
		ab, ba := CGemmCT(a, b), CGemmCT(b, a)
		adj := NewCMatrix(c, k)
		for i := 0; i < c; i++ {
			for j := 0; j < k; j++ {
				adj.Set(i, j, complex(real(ba.At(j, i)), -imag(ba.At(j, i))))
			}
		}
		if !cEqualish(ab, adj, 1e-12) {
			return false
		}
		d := randCMatrix(rng, k, 1+rng.Intn(10))
		bd := NewCMatrix(r, d.Cols)
		CGemm(b, d, bd)
		abd := NewCMatrix(c, d.Cols)
		CGemm(ab, d, abd)
		return cEqualish(CGemmCT(a, bd), abd, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Every shape mismatch panics with ErrDimension.
func TestDimensionPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"CGemm inner", func() { CGemm(NewCMatrix(2, 3), NewCMatrix(4, 2), NewCMatrix(2, 2)) }},
		{"CGemm out rows", func() { CGemm(NewCMatrix(2, 3), NewCMatrix(3, 2), NewCMatrix(3, 2)) }},
		{"CGemm out cols", func() { CGemm(NewCMatrix(2, 3), NewCMatrix(3, 2), NewCMatrix(2, 3)) }},
		{"CGemmCTInto inner", func() { CGemmCTInto(NewCMatrix(5, 2), NewCMatrix(4, 3), NewCMatrix(2, 3)) }},
		{"CGemmCTInto out rows", func() { CGemmCTInto(NewCMatrix(5, 2), NewCMatrix(5, 3), NewCMatrix(3, 3)) }},
		{"CGemmCTInto out cols", func() { CGemmCTInto(NewCMatrix(5, 2), NewCMatrix(5, 3), NewCMatrix(2, 2)) }},
	} {
		func() {
			defer func() {
				if r := recover(); r != ErrDimension {
					t.Errorf("%s: recovered %v, want ErrDimension", tc.name, r)
				}
			}()
			tc.run()
		}()
	}
}
