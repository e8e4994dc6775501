package scf

// PulayMixer implements Pulay's DIIS density mixing: the next input
// density is built from the linear combination of the last `Depth`
// (input, residual) pairs that minimizes the predicted residual norm,
// damped by Alpha. It is the production-code standard that the paper's
// robust-convergence claims (§1, refs [23, 28, 29]) rest on; the engine
// exposes it alongside linear and Anderson mixing as an ablation.
type PulayMixer struct {
	Alpha float64
	Depth int // history length; default 5

	ins [][]float64
	res [][]float64
}

// Mix implements Mixer.
func (m *PulayMixer) Mix(in, out []float64) []float64 {
	depth := m.Depth
	if depth <= 0 {
		depth = 5
	}
	n := len(in)
	r := make([]float64, n)
	for i := range r {
		r[i] = out[i] - in[i]
	}
	m.ins = append(m.ins, append([]float64(nil), in...))
	m.res = append(m.res, r)
	if len(m.ins) > depth {
		m.ins = m.ins[1:]
		m.res = m.res[1:]
	}
	k := len(m.ins)
	if k == 1 {
		next := make([]float64, n)
		for i := range next {
			next[i] = in[i] + m.Alpha*r[i]
		}
		return next
	}
	// Solve the DIIS equations: minimize |Σ c_i r_i|² with Σ c_i = 1.
	// Lagrange system: [B 1; 1ᵀ 0] [c; λ] = [0; 1], B_ij = ⟨r_i|r_j⟩.
	dim := k + 1
	a := make([]float64, dim*dim) // row-major
	var scale float64
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			v := dot(m.res[i], m.res[j])
			a[i*dim+j] = v
			if i == j && v > scale {
				scale = v
			}
		}
	}
	if scale == 0 {
		scale = 1
	}
	// Normalize the residual-overlap block: its entries shrink as |r|²
	// while the constraint row stays O(1), which would otherwise trip
	// the pivot threshold exactly when the iteration is converging. The
	// normalization rescales only the Lagrange multiplier, not c.
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			a[i*dim+j] /= scale
		}
		a[i*dim+k] = 1
		a[k*dim+i] = 1
	}
	rhs := make([]float64, dim)
	rhs[k] = 1
	c, ok := solveDense(a, rhs)
	if !ok {
		// Singular history (e.g. converged residuals): fall back to
		// damped linear mixing and reset the history.
		m.ins = m.ins[k-1:]
		m.res = m.res[k-1:]
		next := make([]float64, n)
		for i := range next {
			next[i] = in[i] + m.Alpha*r[i]
		}
		return next
	}
	next := make([]float64, n)
	for i := 0; i < k; i++ {
		ci := c[i]
		if ci == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			next[j] += ci * (m.ins[i][j] + m.Alpha*m.res[i][j])
		}
	}
	return next
}

// Reset implements Mixer.
func (m *PulayMixer) Reset() {
	m.ins = nil
	m.res = nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// solveDense solves the n×n system a·x = b (a row-major, n = len(b)) by
// Gaussian elimination with partial pivoting, leaving a and b untouched;
// ok=false on (near-)singularity.
func solveDense(a, b []float64) ([]float64, bool) {
	n := len(b)
	m := append([]float64(nil), a...)
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if abs(m[r*n+col]) > abs(m[p*n+col]) {
				p = r
			}
		}
		if abs(m[p*n+col]) < 1e-14 {
			return nil, false
		}
		if p != col {
			for c := 0; c < n; c++ {
				m[col*n+c], m[p*n+c] = m[p*n+c], m[col*n+c]
			}
			x[col], x[p] = x[p], x[col]
		}
		inv := 1 / m[col*n+col]
		for r := col + 1; r < n; r++ {
			f := m[r*n+col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r*n+c] -= f * m[col*n+c]
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= m[r*n+c] * x[c]
		}
		x[r] = s / m[r*n+r]
	}
	return x, true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
