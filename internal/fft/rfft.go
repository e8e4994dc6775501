package fft

import (
	"fmt"
	"math"
)

// RPlan computes real-to-complex forward and complex-to-real inverse
// DFTs of a fixed length. The real field's Hermitian symmetry
// X[n−k] = conj(X[k]) means only the first n/2+1 spectrum coefficients
// are independent; RPlan stores exactly those ("packed half spectrum")
// and does roughly half the arithmetic of a complex Plan.
//
// Even lengths use the classic half-size trick: the n real samples are
// packed into an n/2-point complex vector z[j] = x[2j] + i·x[2j+1], one
// complex FFT of length n/2 is taken, and the even/odd sub-spectra are
// untangled with one twiddle pass. Odd lengths fall back to the full
// complex plan and keep only the independent half of the output.
//
// Conventions match Plan: the forward transform (forwardS) is
// unnormalized, X[k] = Σ_j x[j] e^{−2πijk/n} for k = 0..n/2; the inverse
// (inverseS) includes the 1/n factor and reconstructs the real signal
// from the packed half spectrum. RPlan3 runs both on tiles of z-lines.
// All tables are read-only after NewRPlan, so one RPlan serves any
// number of concurrent transforms (scratch is caller-owned).
type RPlan struct {
	n    int
	h    int   // n/2 (floor)
	even bool  // half-size trick applies
	half *Plan // even lengths: complex plan of length n/2
	full *Plan // odd lengths: complex plan of length n
	// w[k] = e^{−2πik/n} for k = 0..h: the untangling twiddles (even only).
	w []complex128
}

// NewRPlan prepares a real transform of length n (n ≥ 1).
func NewRPlan(n int) *RPlan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	p := &RPlan{n: n, h: n / 2, even: n%2 == 0}
	if p.even {
		p.half = NewPlan(n / 2)
		p.w = make([]complex128, p.h+1)
		for k := 0; k <= p.h; k++ {
			p.w[k] = twiddle(k, n)
		}
	} else {
		p.full = NewPlan(n)
	}
	return p
}

// twiddle returns e^{−2πik/n}.
func twiddle(k, n int) complex128 {
	ang := -2 * math.Pi * float64(k) / float64(n)
	return complex(math.Cos(ang), math.Sin(ang))
}

// HLen returns the packed half-spectrum length n/2+1.
func (p *RPlan) HLen() int { return p.n/2 + 1 }

// scratchLen is the complex scratch forwardS/inverseS need per line: the
// packed vector plus the engine's ping-pong half of the same length —
// n/2 each (even) or n each (odd).
func (p *RPlan) scratchLen() int {
	if p.even {
		return 2 * p.h
	}
	return 2 * p.n
}

// rflops models the operation count of one real transform: the
// half-size complex FFT plus the O(n) pack/untangle pass for even
// lengths — about half of the complex count flops(n) — or the full
// complex FFT plus the widening pass for the odd fallback. Perf
// accounting uses this so the -perf report shows real transforms at
// their true (halved) cost instead of inheriting the complex model.
func rflops(n int) int64 {
	if n <= 1 {
		return 0
	}
	if n%2 == 0 {
		return flops(n/2) + 6*int64(n)
	}
	return flops(n) + 2*int64(n)
}

// forwardS computes the packed half spectra (len n/2+1 each) of w real
// lines (len n each) packed back to back in src and dst, with
// caller-owned scratch of ≥ w·scratchLen elements: the lines are
// packed into one [element][line] tile, so the complex plan transforms
// them together. No perf counters are touched; batch drivers attribute
// modelled FLOPs once per pass.
func (p *RPlan) forwardS(src []float64, dst []complex128, scratch []complex128, w int) {
	n, h, hl := p.n, p.h, p.HLen()
	if !p.even {
		z := scratch[:n*w]
		for t := 0; t < w; t++ {
			for j, v := range src[t*n : (t+1)*n] {
				z[j*w+t] = complex(v, 0)
			}
		}
		p.full.forwardS(z, scratch[n*w:], w)
		for t := 0; t < w; t++ {
			for k := range dst[t*hl : (t+1)*hl] {
				dst[t*hl+k] = z[k*w+t]
			}
		}
		return
	}
	z := scratch[:h*w]
	for t := 0; t < w; t++ {
		line := src[t*n : (t+1)*n]
		for j := 0; j < h; j++ {
			z[j*w+t] = complex(line[2*j], line[2*j+1])
		}
	}
	p.half.forwardS(z, scratch[h*w:], w)
	// Untangle: with E/O the DFTs of the even/odd samples,
	// z^[k] = E[k] + i·O[k] and X[k] = E[k] + w[k]·O[k], where
	// E[k] = (z^[k]+conj(z^[h−k]))/2 and O[k] = −i(z^[k]−conj(z^[h−k]))/2.
	for t := 0; t < w; t++ {
		out := dst[t*hl : (t+1)*hl]
		z0 := z[t]
		out[0] = complex(real(z0)+imag(z0), 0)
		out[h] = complex(real(z0)-imag(z0), 0)
		for k := 1; k < h; k++ {
			zk := z[k*w+t]
			zc := conj(z[(h-k)*w+t])
			e := (zk + zc) * complex(0.5, 0)
			o := (zk - zc) * complex(0, -0.5)
			out[k] = e + p.w[k]*o
		}
	}
}

// inverseS reconstructs w real lines from their packed half spectra,
// including the 1/n normalization (src is preserved), with caller-owned
// scratch of ≥ w·scratchLen elements; every output is further
// multiplied by norm (RPlan3 passes the other two axes' 1/(NxNy), so the
// whole 3-D normalization is one multiply at the final write).
func (p *RPlan) inverseS(src []complex128, dst []float64, scratch []complex128, w int, norm float64) {
	n, h, hl := p.n, p.h, p.HLen()
	if !p.even {
		z := scratch[:n*w]
		for t := 0; t < w; t++ {
			in := src[t*hl : (t+1)*hl]
			z[t] = in[0]
			for k := 1; k <= h; k++ {
				z[k*w+t], z[(n-k)*w+t] = in[k], conj(in[k])
			}
		}
		p.full.forwardS(z, scratch[n*w:], w)
		norm /= float64(n)
		for t := 0; t < w; t++ {
			for j := range dst[t*n : (t+1)*n] {
				dst[t*n+j] = real(z[rev(j, n, true)*w+t]) * norm
			}
		}
		return
	}
	z := scratch[:h*w]
	// Re-tangle: E[k] = (X[k]+conj(X[h−k]))/2,
	// O[k] = conj(w[k])·(X[k]−conj(X[h−k]))/2, z^[k] = E[k] + i·O[k].
	for t := 0; t < w; t++ {
		in := src[t*hl : (t+1)*hl]
		for k := 0; k < h; k++ {
			xk := in[k]
			xc := conj(in[h-k])
			e := (xk + xc) * complex(0.5, 0)
			o := conj(p.w[k]) * (xk - xc) * complex(0.5, 0)
			z[k*w+t] = e + complex(0, 1)*o
		}
	}
	p.half.forwardS(z, scratch[h*w:], w)
	// The half-length inverse's 1/h is exactly the 1/n normalization of
	// the interleaved samples; like every inverse here it is the forward
	// transform read backwards.
	norm /= float64(h)
	for t := 0; t < w; t++ {
		line := dst[t*n : (t+1)*n]
		for j := 0; j < h; j++ {
			v := z[rev(j, h, true)*w+t]
			line[2*j], line[2*j+1] = real(v)*norm, imag(v)*norm
		}
	}
}
