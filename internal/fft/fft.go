// Package fft implements complex discrete Fourier transforms: one
// iterative Stockham autosort engine over a per-length factor schedule
// (hard-coded radix-2/3/4/5 butterflies, a generic butterfly for larger
// primes) that transforms a tile of interleaved lines per stage, a
// Bluestein convolution on top of it for lengths with a large prime
// factor, batched/parallel 3-D transforms — complex, sphere-pruned and
// real-to-complex — whose passes feed the engine whole tiles, and a
// deliberately naive reference DFT.
//
// The package plays the role FFTW and Spiral played in the paper (§3.2,
// §4.2): the plane-wave domain solver applies the kinetic and local
// potential operators in whichever space is diagonal, moving wave
// functions between real and reciprocal space with 3-D FFTs. The paper
// replaced FFTW with the SIMD-tuned Spiral library because domain grids
// (core + 2·buffer) are small and rarely powers of two; here `Plan`
// (tuned) vs `SlowDFT` (commodity stand-in) expose the same ablation.
package fft

import (
	"fmt"
	"math"
	"sync"

	"ldcdft/internal/perf"
)

// Plan holds the precomputed schedule for transforms of a fixed length.
// All tables are read-only after NewPlan, so a Plan is safe for
// concurrent use: Forward/Inverse draw per-call scratch from an internal
// pool, and the unexported forwardS takes caller-owned scratch (see
// scratchLen) for allocation-free hot paths.
type Plan struct {
	n       int
	stages  []stage    // the Stockham schedule; nil when blu serves the length
	blu     *bluestein // lengths with a prime factor the schedule does not take
	scratch sync.Pool  // *[]complex128 of scratchLen for Forward/Inverse
}

// NewPlan prepares a transform of length n (n ≥ 1).
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	p := &Plan{n: n}
	if smoothLength(n) || n <= denseSizeLimit {
		p.stages = newStages(n)
	} else {
		p.blu = newBluestein(n)
	}
	p.scratch.New = func() any {
		s := make([]complex128, p.scratchLen())
		return &s
	}
	return p
}

// scratchLen returns the scratch length forwardS needs per line: the
// engine is out of place, so n; Bluestein its padded convolution buffer
// plus its sub-plan's own scratch.
func (p *Plan) scratchLen() int {
	if p.blu != nil {
		return p.blu.m + p.blu.sub.scratchLen()
	}
	return p.n
}

// forwardS computes the forward DFT of the s interleaved lines of
// x[:n·s] (element j of line t at x[j*s+t]) in place, using caller-owned
// scratch of at least s·scratchLen elements. There is no inverse kernel:
// the raw inverse Σ X[k] e^{+2πi jk/n} is the forward transform read at
// index (n−j) mod n, a reversal every caller folds into the pass that
// writes its result out. No perf counters are touched; batch drivers
// attribute modelled FLOPs once per pass instead of per line.
func (p *Plan) forwardS(x, scratch []complex128, s int) {
	if p.blu != nil {
		p.blu.forward(x, scratch, s)
		return
	}
	p.stockham(x, scratch, s)
}

// Forward computes the in-place forward DFT: X[k] = Σ x[j] e^{-2πi jk/n}.
func (p *Plan) Forward(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: length %d != plan %d", len(x), p.n))
	}
	s := p.scratch.Get().(*[]complex128)
	p.forwardS(x, *s, 1)
	p.scratch.Put(s)
	perf.Global.Add(flops(p.n))
}

// flops is the standard 5 n log2 n FFT operation-count model.
func flops(n int) int64 {
	if n <= 1 {
		return 0
	}
	return int64(5 * float64(n) * math.Log2(float64(n)))
}

// bluestein implements the chirp-z transform for lengths the schedule
// does not take by embedding in a power-of-two convolution.
type bluestein struct {
	n    int
	m    int // power-of-two convolution length ≥ 2n-1
	sub  *Plan
	w    []complex128 // chirp e^{-iπ k²/n}
	finv []complex128 // FFT of the conjugate chirp, padded to m, over m
}

func newBluestein(n int) *bluestein {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	b := &bluestein{n: n, m: m, sub: NewPlan(m)}
	b.w = make([]complex128, n)
	for k := 0; k < n; k++ {
		// Use k² mod 2n to avoid precision loss for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		b.w[k] = root(int(kk), 2*n)
	}
	b.finv = make([]complex128, m)
	for k := 0; k < n; k++ {
		// The 1/m of the convolution's inverse transform rides here; m is
		// a power of two, so the scaling is exact.
		c := scale(conj(b.w[k]), 1/float64(m))
		b.finv[k] = c
		if k > 0 {
			b.finv[m-k] = c
		}
	}
	b.sub.Forward(b.finv)
	return b
}

// forward computes the forward DFT of s interleaved lines in place using
// caller scratch of at least s·(m + sub.scratchLen()) elements. The
// convolution's inverse transform is a second forward one read backwards.
func (b *bluestein) forward(x, scratch []complex128, s int) {
	n, m := b.n, b.m
	a, rest := scratch[:m*s], scratch[m*s:]
	for k, w := range b.w {
		row := a[k*s : (k+1)*s]
		for q, v := range x[k*s : (k+1)*s] {
			row[q] = v * w
		}
	}
	clear(a[n*s:])
	b.sub.stockham(a, rest, s)
	for i, f := range b.finv {
		row := a[i*s : (i+1)*s]
		for q := range row {
			row[q] *= f
		}
	}
	b.sub.stockham(a, rest, s)
	for k, w := range b.w {
		i := (m - k) % m
		row := x[k*s : (k+1)*s]
		for q, v := range a[i*s : (i+1)*s] {
			row[q] = v * w
		}
	}
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }
