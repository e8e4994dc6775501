package core

import (
	"testing"

	"ldcdft/internal/atoms"
)

// BenchmarkSCFStep measures one full LDC-DFT SCF iteration (global
// multigrid Hartree + 8 parallel domain solves + μ + density assembly)
// on the 8-atom SiC benchmark cell.
func BenchmarkSCFStep(b *testing.B) {
	sys := atoms.BuildSiC(1)
	e, err := NewEngine(sys, sicConfig(ModeLDC, 2, 3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rhoOut, _, err := e.SCFStep()
		if err != nil {
			b.Fatal(err)
		}
		e.mixer.Mix([][]float64{e.Rho.Data}, [][]float64{rhoOut.Data})
	}
}

// BenchmarkSCFStepDC is the same step without the LDC boundary potential
// (the original DC algorithm) — the per-iteration cost is essentially
// identical; LDC wins by needing a thinner buffer at equal accuracy.
func BenchmarkSCFStepDC(b *testing.B) {
	sys := atoms.BuildSiC(1)
	e, err := NewEngine(sys, sicConfig(ModeDC, 2, 3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rhoOut, _, err := e.SCFStep()
		if err != nil {
			b.Fatal(err)
		}
		e.mixer.Mix([][]float64{e.Rho.Data}, [][]float64{rhoOut.Data})
	}
}

// BenchmarkSCFStepBufferCost demonstrates the §3.1 prefactor: the same
// step with a thicker buffer (the cost LDC avoids).
func BenchmarkSCFStepThickBuffer(b *testing.B) {
	sys := atoms.BuildSiC(1)
	e, err := NewEngine(sys, sicConfig(ModeLDC, 2, 5))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rhoOut, _, err := e.SCFStep()
		if err != nil {
			b.Fatal(err)
		}
		e.mixer.Mix([][]float64{e.Rho.Data}, [][]float64{rhoOut.Data})
	}
}
