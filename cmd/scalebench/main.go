// Command scalebench prints the modelled weak- and strong-scaling
// experiments of the paper (Figs. 5 and 6) on the Blue Gene/Q machine
// model, using the calibrated LDC-DFT cost model. With -perf it
// additionally runs a small real LDC-DFT workload in this process and
// prints the measured per-phase report (the tables themselves are pure
// model arithmetic and record no phases).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	qmd "ldcdft"
	"ldcdft/internal/perf"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scalebench: ")
	weak := flag.Bool("weak", true, "run the weak-scaling experiment (Fig. 5)")
	strong := flag.Bool("strong", true, "run the strong-scaling experiment (Fig. 6)")
	pf := perf.RegisterFlags(flag.CommandLine)
	flag.Lookup("perf").Usage = "run a small real LDC-DFT workload and print the per-phase report"
	scale := flag.Bool("scale", false, "run the measured workspace-streaming scale sweep (one subprocess per decomposition) and write the scale report")
	scaleJS := flag.String("scale-json", "BENCH_scale.json", "output path of the -scale report")
	scaleChild := flag.Int("scale-child", 0, "internal: run one -scale sweep point at this DomainsPerAxis and print its JSON row")
	flag.Parse()

	if *scaleChild > 0 {
		if err := runScaleChild(*scaleChild); err != nil {
			log.Fatalf("%v", err)
		}
		return
	}
	if *scale {
		if err := runScaleSweep(*scaleJS); err != nil {
			log.Fatalf("%v", err)
		}
		return
	}

	stopProf, err := pf.Start()
	if err != nil {
		log.Fatalf("%v", err)
	}
	defer stopProf()

	if *weak {
		fmt.Println("Fig. 5 — weak scaling: 64·P-atom SiC on P Blue Gene/Q cores")
		fmt.Println("      P        atoms   wall-clock/step   efficiency")
		for _, pt := range qmd.Fig5WeakScaling() {
			fmt.Printf("%8d  %11d  %12.1f s    %8.4f\n",
				pt.Cores, pt.Atoms, pt.WallClock, pt.Efficiency)
		}
		fmt.Println("paper: efficiency 0.984 at P = 786,432 (50,331,648 atoms)")
		fmt.Println()
	}
	if *strong {
		fmt.Println("Fig. 6 — strong scaling: 77,889-atom LiAl-water system")
		fmt.Println("      P    wall-clock/step   speedup   efficiency")
		base := 0.0
		for _, pt := range qmd.Fig6StrongScaling() {
			if base == 0 {
				base = pt.WallClock
			}
			fmt.Printf("%8d  %12.2f s   %7.2f   %8.4f\n",
				pt.Cores, pt.WallClock, base/pt.WallClock, pt.Efficiency)
		}
		fmt.Println("paper: speedup 12.85 (efficiency 0.803) at 16× cores")
	}

	if pf.Report || pf.JSONPath != "" {
		fmt.Println("\nrunning one MD step of an 8-atom SiC cell to measure real phases...")
		sys := qmd.BuildSiC(1)
		sys.InitVelocities(300, rand.New(rand.NewSource(1)))
		cfg := qmd.LDCConfig{
			GridN:          16,
			DomainsPerAxis: 2,
			BufN:           2,
			Ecut:           3.0,
			KT:             0.05,
			MixAlpha:       0.3,
			Anderson:       true,
			MaxSCF:         100,
			EigenIters:     3,
			Seed:           1,
		}
		if _, err := qmd.RunQMD(sys, cfg, 1, 0); err != nil {
			log.Fatalf("perf workload: %v", err)
		}
		if err := pf.Write(os.Stdout); err != nil {
			log.Fatalf("%v", err)
		}
	}
}
