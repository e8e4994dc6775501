package core

import (
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/grid"
)

func TestSetDensity(t *testing.T) {
	sys := atoms.BuildSiC(1)
	e, err := NewEngine(sys, sicConfig(ModeLDC, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	good := grid.NewField(e.Global)
	for i := range good.Data {
		good.Data[i] = 0.05
	}
	if err := e.SetDensity(good); err != nil {
		t.Fatal(err)
	}
	if e.Rho.Data[0] != 0.05 {
		t.Fatal("density not installed")
	}
	bad := grid.NewField(grid.New(8, sys.Cell.L))
	if err := e.SetDensity(bad); err == nil {
		t.Fatal("grid mismatch must fail")
	}
}

func TestWorkersOne(t *testing.T) {
	// Serial domain execution must agree with parallel.
	sys := atoms.BuildSiC(1)
	cfgP := sicConfig(ModeLDC, 2, 2)
	cfgS := cfgP
	cfgS.Workers = 1
	ep, err := NewEngine(sys, cfgP)
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewEngine(sys, cfgS)
	if err != nil {
		t.Fatal(err)
	}
	_, stepP, err := ep.SCFStep()
	if err != nil {
		t.Fatal(err)
	}
	_, stepS, err := es.SCFStep()
	if err != nil {
		t.Fatal(err)
	}
	if diff := stepP.Energy - stepS.Energy; diff > 1e-10 || diff < -1e-10 {
		t.Fatalf("parallel (%.12f) vs serial (%.12f) energies differ", stepP.Energy, stepS.Energy)
	}
}
