// Command scalebench measures how this build scales on this host: -scale
// runs the workspace-streaming memory sweep (one subprocess per
// decomposition, scale.go); -perf / -perf-json run one MD step of a small
// real LDC-DFT workload and print the measured per-phase report. With
// neither it prints its usage. (The modelled Fig. 5 / 6 tables are qmdexp
// specs.)
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

	if !pf.Report && pf.JSONPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	stopProf, err := pf.Start()
	if err != nil {
		log.Fatalf("%v", err)
	}
	defer stopProf()

	fmt.Println("running one MD step of an 8-atom SiC cell to measure real phases...")
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
