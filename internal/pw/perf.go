package pw

import "ldcdft/internal/perf"

// Phase timers for the plane-wave kernels. These regions run concurrently
// across domain solvers (and ApplyAll itself is band-parallel), so their
// totals are CPU-seconds; FLOPs are attributed from the same modelled
// operation counts the kernels report to the Global counter, never from
// Global deltas (which would mix in other workers' work).
var (
	phApplyH = perf.GetPhase("pw/apply-hamiltonian")
	phOrtho  = perf.GetPhase("pw/orthonormalize")
)

// applyAllFlops models HΨ over nb bands. On the dense path that is the
// one GEMM, 8·np² per band. Otherwise: the lines the two sphere-pruned
// 3-D FFTs run, the Vloc multiply and kinetic scale per band, plus the
// nonlocal projector GEMMs.
func (h *Hamiltonian) applyAllFlops(nb int) int64 {
	b := h.Basis
	np := int64(b.Np())
	if h.op != nil {
		return 8 * np * np * int64(nb)
	}
	fl := int64(nb) * b.fftBandFlops()
	if h.hasProjectors() {
		fl += 16 * np * int64(h.proj.NumProjectors()) * int64(nb)
	}
	return fl
}

// orthoFlops models the overlap-matrix orthonormalization of an np×nb
// block: two complex GEMMs (S = Ψ†Ψ and Ψ L^{-†}) plus the Cholesky and
// triangular inverse.
func orthoFlops(np, nb int) int64 {
	n := int64(np)
	b := int64(nb)
	return 16*n*b*b + 8*b*b*b/3
}
