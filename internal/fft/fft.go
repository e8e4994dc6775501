// Package fft implements complex discrete Fourier transforms: one
// iterative Stockham autosort engine over a per-length factor schedule
// (hard-coded radix-2/3/4/5 butterflies, a generic butterfly for larger
// primes) that transforms a tile of interleaved lines per stage and
// serves every length, batched/parallel 3-D transforms — complex,
// sphere-pruned and real-to-complex — whose passes feed the engine whole
// tiles, and a deliberately naive reference DFT.
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
)

// Plan holds the precomputed Stockham schedule for transforms of a fixed
// length. Its tables are read-only after NewPlan, so a Plan is safe for
// concurrent use; forwardS takes caller-owned scratch, so the hot paths
// allocate nothing.
type Plan struct {
	n      int
	stages []stage
}

// NewPlan prepares a transform of length n (n ≥ 1).
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	return &Plan{n: n, stages: newStages(n)}
}

// flops is the standard 5 n log2 n FFT operation-count model.
func flops(n int) int64 {
	if n <= 1 {
		return 0
	}
	return int64(5 * float64(n) * math.Log2(float64(n)))
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }
