// Command h2od runs a (scaled-down) hydrogen-on-demand production
// simulation: a LinAln nanoparticle immersed in water evolved with the
// reactive surrogate field, reporting the species census timeline, the
// H₂ production rate, and the pH trend (§6 of the paper). With
// -checkpoint the final configuration is written as a restartable
// checkpoint.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"ldcdft/cmd/internal/trajcli"
	"ldcdft/internal/analysis"
	"ldcdft/internal/atoms"
	"ldcdft/internal/qio"
	"ldcdft/internal/reactive"
	"ldcdft/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("h2od: ")
	var (
		pairs = flag.Int("pairs", 30, "n in LinAln (paper: 30, 135, 441)")
		tempK = flag.Float64("temp", 1500, "temperature (K)")
		steps = flag.Int("steps", 4000, "MD steps (paper production: 21,140)")
		seed  = flag.Int64("seed", 1, "random seed")
		run   = trajcli.Register(500)
	)
	ctx, finish := run.Start()
	defer finish()
	cfg := reactive.ProductionConfig{
		TempK: *tempK, Steps: *steps, SampleEvery: *steps / 8, Seed: *seed,
		CheckpointEvery: run.Every, CheckpointPath: run.Checkpoint,
		Ctx: ctx,
	}
	var sys *atoms.System
	if run.Resume != "" {
		ck, err := qio.ReadCheckpoint(run.Resume)
		if err != nil {
			log.Fatalf("resume: %v", err)
		}
		if sys, err = ck.RestoreSystem(); err != nil {
			log.Fatalf("resume: %v", err)
		}
		cfg.Resume = ck
		fmt.Printf("resumed from %s at step %d: %d atoms, cell %.1f Bohr\n",
			run.Resume, ck.Step, sys.NumAtoms(), sys.Cell.L)
	} else {
		rng := rand.New(rand.NewSource(*seed))
		var err error
		sys, err = atoms.BuildLiAlInWater(atoms.LiAlParticleSpec{PairCount: *pairs}, rng)
		if err != nil {
			log.Fatalf("build: %v", err)
		}
		fmt.Printf("Li%dAl%d in water: %d atoms, cell %.1f Bohr, %d surface metal atoms\n",
			*pairs, *pairs, sys.NumAtoms(), sys.Cell.L, reactive.SurfaceAtoms(sys))
	}

	res, err := reactive.RunProduction(sys, cfg)
	if err != nil {
		trajcli.Exit(err)
	}
	fmt.Println("  time(fs)   H2  H2O   OH-  M-H  freeH  dissolved-Li   pH-proxy")
	for _, s := range res.Samples {
		c := s.Census
		fmt.Printf("%9.1f  %4d %4d  %4d %4d  %5d  %12d  %9.2f\n",
			s.TimeFs, c.H2, c.Water, c.Hydroxide, c.MetalH, c.FreeH, c.DissolvedLi, c.PHProxy())
	}
	fmt.Printf("H2 production rate: %.3g /s per LiAl pair, %.3g /s per surface atom\n",
		res.RatePerPairPerSec, res.RatePerSurfacePerSec)

	// Post-trajectory structure analysis (§6): the Al-O oxide shell and
	// the O-H bond survival.
	rdf := analysis.NewRDF(sys.Cell.L/2.5, 120)
	if err := rdf.Accumulate(sys, atoms.Aluminum, atoms.Oxygen); err == nil {
		if pos, h := rdf.FirstPeak(1.5); h > 0 {
			fmt.Printf("Al-O RDF first peak: r = %.2f Angstrom (g = %.1f) — the oxide/adsorption shell\n",
				pos*units.AngstromPerBohr, h)
		}
	}
	rdfOH := analysis.NewRDF(sys.Cell.L/2.5, 120)
	if err := rdfOH.Accumulate(sys, atoms.Oxygen, atoms.Hydrogen); err == nil {
		if pos, h := rdfOH.FirstPeak(1.5); h > 0 {
			fmt.Printf("O-H RDF first peak: r = %.2f Angstrom (g = %.1f)\n",
				pos*units.AngstromPerBohr, h)
		}
	}
}
