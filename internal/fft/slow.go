package fft

import "ldcdft/internal/perf"

// SlowDFT computes the forward DFT by direct O(n²) summation. It is the
// "commodity, non-vectorized library" stand-in of the §4.2 ablation (the
// role the unvectorized FFTW build played on Blue Gene/Q before the
// switch to Spiral) and the correctness reference for Plan: the angle is
// reduced mod n before the sine, so the oracle itself is good to
// ~1e-13·‖x‖ at n = 1000.
func SlowDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += x[j] * root(k*j, n)
		}
		out[k] = s
	}
	perf.Global.AddScalar(8 * int64(n) * int64(n))
	return out
}

// SlowIDFT computes the inverse DFT (with 1/n) by direct summation.
func SlowIDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += x[j] * conj(root(k*j, n))
		}
		out[k] = s / complex(float64(n), 0)
	}
	perf.Global.AddScalar(8 * int64(n) * int64(n))
	return out
}
