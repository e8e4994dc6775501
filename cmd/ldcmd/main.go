// Command ldcmd runs a quantum molecular dynamics simulation with the
// LDC-DFT engine on a SiC supercell: the Fig. 2 SCF loop inside a
// velocity-Verlet loop, printing per-step energy, temperature and SCF
// iteration counts.
//
// Example:
//
//	ldcmd -cells 1 -grid 24 -domains 2 -buf 3 -steps 3
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"

	qmd "ldcdft"
	"ldcdft/cmd/internal/trajcli"
	"ldcdft/internal/cache"
	"ldcdft/internal/qio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldcmd: ")
	var (
		cells   = flag.Int("cells", 1, "SiC supercell replications per axis (8n³ atoms)")
		gridN   = flag.Int("grid", 24, "global real-space grid points per axis")
		domains = flag.Int("domains", 2, "DC domains per axis")
		bufN    = flag.Int("buf", 3, "buffer thickness in grid points")
		ecut    = flag.Float64("ecut", 4.0, "plane-wave cutoff (Hartree)")
		steps   = flag.Int("steps", 2, "MD steps")
		dtFs    = flag.Float64("dt", 0, "time step in fs (0 = paper default 0.242)")
		tempK   = flag.Float64("temp", 300, "initial temperature (K)")
		dcMode  = flag.Bool("dc", false, "use original DC (no boundary potential)")
		seed    = flag.Int64("seed", 1, "random seed")
		xyzPath = flag.String("xyz", "", "write the trajectory to this XYZ file")
		run     = trajcli.Register(1)

		cacheDir   = flag.String("cache-dir", "", "SCF warm-start cache directory (empty = no cache)")
		cacheBytes = flag.Int64("cache-bytes", 256<<20, "warm-start cache byte budget")
	)
	ctx, finish := run.Start()
	defer finish()
	// Cache tuning without a cache directory would be silently ignored too.
	trajcli.RequireWith("cache-dir", *cacheDir != "", "cache-bytes")
	if *cacheBytes < 0 {
		log.Fatalf("-cache-bytes must be non-negative, got %d", *cacheBytes)
	}

	sys := qmd.BuildSiC(*cells)
	sys.InitVelocities(*tempK, rand.New(rand.NewSource(*seed)))
	mode := qmd.ModeLDC
	if *dcMode {
		mode = qmd.ModeDC
	}
	cfg := qmd.LDCConfig{
		GridN:          *gridN,
		DomainsPerAxis: *domains,
		BufN:           *bufN,
		Ecut:           *ecut,
		Mode:           mode,
		KT:             0.05,
		MixAlpha:       0.3,
		Anderson:       true,
		MaxSCF:         100,
		EigenIters:     4,
		Seed:           *seed,
	}
	opts := qmd.QMDOptions{
		CheckpointEvery: run.Every,
		CheckpointPath:  run.Checkpoint,
		Ctx:             ctx,
	}
	if *cacheDir != "" {
		wsc, err := cache.Open(cache.Options{Dir: *cacheDir, MaxBytes: *cacheBytes})
		if err != nil {
			log.Fatalf("%v", err)
		}
		opts.Cache = wsc
	}

	var res *qmd.QMDResult
	var err error
	if run.Resume != "" {
		fmt.Printf("resuming from %s (total trajectory %d steps)\n", run.Resume, *steps)
		res, err = qmd.ResumeQMD(run.Resume, cfg, *steps, *dtFs, opts)
	} else {
		fmt.Printf("system: %d atoms (SiC), cell %.3f Bohr, %s mode, %d³ domains, buffer %d pts\n",
			sys.NumAtoms(), sys.Cell.L, mode, *domains, *bufN)
		res, err = qmd.RunQMDOpts(sys, cfg, *steps, *dtFs, opts)
	}
	if err != nil {
		trajcli.Exit(err)
	}
	for i := range res.Energies {
		fmt.Printf("step %3d: E = %.6f Ha, T = %7.1f K\n", i+1, res.Energies[i], res.Temperatures[i])
	}
	if *xyzPath != "" {
		// Atomic: a failed write leaves the previous file, never a partial one.
		err := qio.WriteAtomic(*xyzPath, func(w io.Writer) error {
			return qio.WriteXYZ(w, res.FinalSystem, fmt.Sprintf("qmd steps=%d", res.Steps))
		})
		if err != nil {
			log.Fatalf("xyz: %v", err)
		}
		fmt.Printf("final configuration written to %s\n", *xyzPath)
	}
	fmt.Printf("total SCF iterations: %d (%.1f per MD step)\n",
		res.SCFIterations, float64(res.SCFIterations)/float64(res.Steps))
	if opts.Cache != nil {
		st := opts.Cache.Stats()
		fmt.Printf("warm-start cache: %d exact hits, %d misses, %d SCF iterations saved (%d entries, %d bytes)\n",
			st.Hits, st.Misses, st.SCFIterationsSaved, st.Entries, st.Bytes)
	}
}
