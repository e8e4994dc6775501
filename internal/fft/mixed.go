package fft

import "math"

// mixedFFT is a recursive mixed-radix Cooley–Tukey transform for lengths
// whose prime factors are all small (≤ maxMixedFactor). Domain grids in
// LDC-DFT are rarely powers of two (core + 2·buffer points), so smooth
// composite lengths like 18, 20, 24 are the common case. The twiddle
// tables are read-only after construction; per-call scratch (2n) is
// supplied by the caller, so one mixedFFT serves any number of
// concurrent transforms without allocating.
type mixedFFT struct {
	n   int
	fwd []complex128 // fwd[k] = e^{-2πik/n}
	inv []complex128 // conjugate table
	spf []int        // spf[l] = smallest prime factor of every length l the recursion visits
}

// maxMixedFactor bounds the direct-DFT base case of the recursion.
const maxMixedFactor = 13

// smoothLength reports whether all prime factors of n are ≤ maxMixedFactor.
func smoothLength(n int) bool {
	for f := 2; f <= maxMixedFactor && n > 1; f++ {
		for n%f == 0 {
			n /= f
		}
	}
	return n == 1
}

func newMixedFFT(n int) *mixedFFT {
	m := &mixedFFT{n: n}
	m.fwd = make([]complex128, n)
	m.inv = make([]complex128, n)
	for k := 0; k < n; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		m.fwd[k] = complex(math.Cos(ang), math.Sin(ang))
		m.inv[k] = complex(math.Cos(ang), -math.Sin(ang))
	}
	// Every branch of rec at one depth sees the same length, so the
	// factor schedule is a single chain from n down; trial division runs
	// here once instead of at every level of every line.
	m.spf = make([]int, n+1)
	for l := n; l > 1; {
		r := smallestPrimeFactor(l)
		m.spf[l] = r
		if fusedRadix4(r, l) {
			r = 4
		}
		l /= r
	}
	return m
}

// fusedRadix4 reports whether rec collapses two radix-2 levels of a
// length-n transform into one decimation by 4 (n = 4 is excluded: its
// length-2 halves go through the prime base case, whose table-root
// multiplies a fused combine would not replay exactly).
func fusedRadix4(r, n int) bool { return r == 2 && n%4 == 0 && n > 4 }

// transformS computes the DFT of x in place using caller scratch of at
// least 2n elements.
func (m *mixedFFT) transformS(x, scratch []complex128, inverse bool) {
	dst := scratch[:m.n]
	scr := scratch[m.n : 2*m.n]
	roots := m.fwd
	if inverse {
		roots = m.inv
	}
	m.rec(x, 1, dst, scr, m.n, roots)
	copy(x, dst)
}

// rec computes the n-point DFT of src[0], src[s], …, src[(n-1)s] into
// dst[0:n] using the given root table. scratch (len ≥ n) may be
// clobbered.
func (m *mixedFFT) rec(src []complex128, s int, dst, scratch []complex128, n int, roots []complex128) {
	if n == 1 {
		dst[0] = src[0]
		return
	}
	r := m.spf[n]
	N := m.n
	if r == n {
		// Prime base case: direct DFT with incremental index arithmetic.
		step := N / n
		for k := 0; k < n; k++ {
			acc := src[0]
			idx := 0
			kstep := k * step
			for j := 1; j < n; j++ {
				idx += kstep
				if idx >= N {
					idx -= N
				}
				acc += src[j*s] * roots[idx]
			}
			dst[k] = acc
		}
		return
	}
	if fusedRadix4(r, n) {
		// Fused radix-4 branch: two radix-2 recursion levels collapsed
		// into one decimation-by-4 plus a single combine pass. The
		// floating-point schedule is op-for-op the radix-2 recursion's
		// (pinned bitwise against recRef in butterfly_test.go); fusing
		// halves the combine passes over dst and needs no scratch copy.
		q := n / 4
		m.rec(src, s*4, dst[0:q], scratch, q, roots)
		m.rec(src[2*s:], s*4, dst[q:2*q], scratch, q, roots)
		m.rec(src[s:], s*4, dst[2*q:3*q], scratch, q, roots)
		m.rec(src[3*s:], s*4, dst[3*q:4*q], scratch, q, roots)
		stepN := N / n
		aa, bb := dst[:q], dst[q:2*q]
		cc, dd := dst[2*q:3*q], dst[3*q:4*q]
		i0, iA, i1 := 0, 0, q*stepN
		for k := 0; k < q; k++ {
			wA := roots[iA]
			a := aa[k]
			b := wA * bb[k]
			u0, u1 := a+b, a-b
			c := cc[k]
			d := wA * dd[k]
			u2, u3 := c+d, c-d
			v0 := roots[i0] * u2
			aa[k], cc[k] = u0+v0, u0-v0
			v1 := roots[i1] * u3
			bb[k], dd[k] = u1+v1, u1-v1
			i0 += stepN
			iA += 2 * stepN
			i1 += stepN
		}
		return
	}
	q := n / r
	// Decimation in time: sub-DFTs of the r interleaved subsequences.
	for i := 0; i < r; i++ {
		m.rec(src[i*s:], s*r, dst[i*q:], scratch, q, roots)
	}
	stepN := N / n
	if r == 2 {
		// Explicit radix-2 butterfly: X[k] = Y0[k] + ω^k Y1[k],
		// X[k+q] = Y0[k] − ω^k Y1[k].
		idx := 0
		for k := 0; k < q; k++ {
			a := dst[k]
			b := roots[idx] * dst[q+k]
			dst[k] = a + b
			scratch[k] = a - b
			idx += stepN
		}
		copy(dst[q:n], scratch[:q])
		return
	}
	if r == 3 {
		// Explicit radix-3 butterfly with ω₃ = e^{∓2πi/3}.
		w3 := roots[N/3]
		w3sq := w3 * w3
		i1, i2 := 0, 0
		for k := 0; k < q; k++ {
			a := dst[k]
			b := roots[i1] * dst[q+k]
			c := roots[i2] * dst[2*q+k]
			dst[k] = a + b + c
			scratch[k] = a + w3*b + w3sq*c
			scratch[q+k] = a + w3sq*b + w3*c
			i1 += stepN
			i2 += 2 * stepN
			if i2 >= N {
				i2 -= N
			}
		}
		copy(dst[q:n], scratch[:2*q])
		return
	}
	// Generic combine: X[k + t·q] = Σ_i ω_n^{ik} ω_r^{it} Y_i[k].
	stepR := N / r
	for k := 0; k < q; k++ {
		kN := k * stepN
		for t := 0; t < r; t++ {
			acc := dst[k] // i = 0 term: both twiddles are 1
			idx := 0
			inc := kN + t*stepR
			for inc >= N {
				inc -= N
			}
			for i := 1; i < r; i++ {
				idx += inc
				if idx >= N {
					idx -= N
				}
				acc += roots[idx] * dst[i*q+k]
			}
			scratch[k+t*q] = acc
		}
	}
	copy(dst[:n], scratch[:n])
}

// smallestPrimeFactor returns the least prime factor of n (n ≥ 2).
func smallestPrimeFactor(n int) int {
	if n%2 == 0 {
		return 2
	}
	for f := 3; f*f <= n; f += 2 {
		if n%f == 0 {
			return f
		}
	}
	return n
}
