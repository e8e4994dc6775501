package linalg

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

func benchCMatrix(r, c int) *CMatrix {
	rng := rand.New(rand.NewSource(1))
	m := NewCMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

// BenchmarkCGemm is the §4.2 data-parallelism ablation on the kernel the
// solver runs: the test-reference triple loop, CGemm on one processor,
// and CGemm split into row panels over GOMAXPROCS processors.
func BenchmarkCGemm(b *testing.B) {
	a := benchCMatrix(256, 256)
	x := benchCMatrix(256, 32)
	c := NewCMatrix(256, 32)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cgemmNaiveRef(a, x)
		}
	})
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run("procs="+strconv.Itoa(procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < b.N; i++ {
				CGemm(a, x, c)
			}
		})
	}
}

func BenchmarkCGemmCTOverlap(b *testing.B) {
	// The §3.3 overlap-matrix construction S = Ψ†Ψ.
	psi := benchCMatrix(1024, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CGemmCT(psi, psi)
	}
}

func BenchmarkCholeskyHermitian(b *testing.B) {
	psi := benchCMatrix(256, 48)
	s := CGemmCT(psi, psi)
	for i := 0; i < 48; i++ {
		s.Set(i, i, s.At(i, i)+48)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CholeskyHermitian(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHermitianEigen / BenchmarkHermitianEigenJacobi: the direct
// subspace solve against the cyclic Jacobi it replaced, at the band
// counts of the benchmark workloads' Rayleigh–Ritz (14) and expanded
// (28) matrices. The pair's ratio is the machine-independent record.
func BenchmarkHermitianEigen(b *testing.B) {
	benchEigen(b, HermitianEigen)
}

func BenchmarkHermitianEigenJacobi(b *testing.B) {
	benchEigen(b, hermitianEigenJacobi)
}

func benchEigen(b *testing.B, solve func(*CMatrix) ([]float64, *CMatrix, error)) {
	for _, n := range []int{14, 28} {
		h := randHermitian(rand.New(rand.NewSource(2)), n)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := solve(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
