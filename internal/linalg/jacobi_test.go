package linalg

import (
	"math"
	"math/cmplx"
)

// hermitianEigenJacobi is the cyclic complex Jacobi method that was
// HermitianEigen until the direct solver replaced it: up to 60 sweeps of
// unitary plane rotations, each sweep O(n³). It stays here as the
// independent reference the direct solver is pinned against.
func hermitianEigenJacobi(h *CMatrix) ([]float64, *CMatrix, error) {
	if h.Rows != h.Cols {
		return nil, nil, ErrDimension
	}
	n := h.Rows
	a := h.Clone()
	v := NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	var scale float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			scale += cmplx.Abs(a.At(i, j))
		}
	}
	if scale == 0 {
		scale = 1
	}
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += cmplx.Abs(a.At(i, j))
			}
		}
		if off < 1e-13*scale {
			return jacobiCollect(a, v)
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if cmplx.Abs(apq) < 1e-300 {
					continue
				}
				app := real(a.At(p, p))
				aqq := real(a.At(q, q))
				// Unitary rotation zeroing a[p][q]:
				//   phase e^{iφ} = apq/|apq|; then a real 2×2 rotation.
				absApq := cmplx.Abs(apq)
				phase := apq / complex(absApq, 0)
				tau := (aqq - app) / (2 * absApq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				cs := complex(c, 0)
				sPhase := complex(s, 0) * phase
				// Update rows/columns p and q of a: a ← J† a J with
				// J = [[c, s·e^{iφ}], [-s·e^{-iφ}, c]] acting on (p, q).
				for k := 0; k < n; k++ {
					akp := a.At(k, p)
					akq := a.At(k, q)
					a.Set(k, p, cs*akp-cmplx.Conj(sPhase)*akq)
					a.Set(k, q, sPhase*akp+cs*akq)
				}
				for k := 0; k < n; k++ {
					apk := a.At(p, k)
					aqk := a.At(q, k)
					a.Set(p, k, cs*apk-sPhase*aqk)
					a.Set(q, k, cmplx.Conj(sPhase)*apk+cs*aqk)
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, cs*vkp-cmplx.Conj(sPhase)*vkq)
					v.Set(k, q, sPhase*vkp+cs*vkq)
				}
			}
		}
	}
	return nil, nil, ErrNoConvergence
}

// jacobiCollect sorts the (converged) diagonal of a ascending and permutes
// the eigenvector columns of v to match.
func jacobiCollect(a, v *CMatrix) ([]float64, *CMatrix, error) {
	n := a.Rows
	type pair struct {
		val float64
		col int
	}
	ps := make([]pair, n)
	for i := 0; i < n; i++ {
		ps[i] = pair{real(a.At(i, i)), i}
	}
	for i := 1; i < n; i++ { // insertion sort; n is small
		p := ps[i]
		j := i - 1
		for j >= 0 && ps[j].val > p.val {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = p
	}
	w := make([]float64, n)
	out := NewCMatrix(n, n)
	for m, p := range ps {
		w[m] = p.val
		for i := 0; i < n; i++ {
			out.Set(i, m, v.At(i, p.col))
		}
	}
	return w, out, nil
}
