package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// referencePath is where `bench reference` writes; the same file is
// embedded at build time, so a run needs nothing but the binary.
const referencePath = "testdata/reference.json"

//go:embed testdata/reference.json
var referenceJSON []byte

// reference holds the committed outputs, by reference key and seed.
type reference struct {
	Note    string                       `json:"note"`
	Entries map[string]map[string]output `json:"entries"`
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", referencePath, err)
	}
	return &r, nil
}

// qmdEnergyTol is 100x the SCF EnergyTol. The solver's own scatter
// between start vectors (Config.Seed 1 against 3) is 2.5e-5 Ha per step,
// so a correct replacement solver stays inside 1e-4; wrong physics is
// off by 1e-3 and more.
const (
	qmdEnergyTol   = 1e-4 // Ha per MD step, absolute
	exactEnergyTol = 1e-9 // relative; the reactive engine is deterministic
	tempTol        = 0.01 // relative
)

// check verifies a run's outputs: invariants always, and the committed
// reference where one exists for this seed at full size. The string
// says which, for the ledger.
func (r *reference) check(w workload, o runOpts, got *output) (string, error) {
	if got.FinalAtoms != got.Atoms {
		return "", fmt.Errorf("atom count changed: %d at start, %d at the end", got.Atoms, got.FinalAtoms)
	}
	if len(got.Energies) == 0 {
		return "", fmt.Errorf("no energies reported")
	}
	for i, e := range got.Energies {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return "", fmt.Errorf("energy %d is %v", i, e)
		}
	}
	want, ok := r.Entries[w.Ref][strconv.FormatInt(o.seed, 10)]
	if o.toy || !ok {
		return "invariants only (finite energies, atom count preserved): no committed reference for this seed and size", nil
	}
	if len(got.Energies) != len(want.Energies) {
		return "", fmt.Errorf("%d energies, reference has %d", len(got.Energies), len(want.Energies))
	}
	for i, e := range got.Energies {
		tol := w.EnergyTolHa
		if tol == 0 {
			tol = exactEnergyTol * math.Abs(want.Energies[i])
		}
		if d := math.Abs(e - want.Energies[i]); d > tol {
			return "", fmt.Errorf("energy %d is %.12g Ha, reference %.12g (off by %.3g, tolerance %.3g)",
				i, e, want.Energies[i], d, tol)
		}
	}
	if want.Atoms != got.Atoms {
		return "", fmt.Errorf("%d atoms, reference has %d", got.Atoms, want.Atoms)
	}
	if want.Census != nil && (got.Census == nil || *got.Census != *want.Census) {
		return "", fmt.Errorf("final census %+v, reference %+v", got.Census, *want.Census)
	}
	if want.FinalTempK > 0 && math.Abs(got.FinalTempK-want.FinalTempK) > tempTol*want.FinalTempK {
		return "", fmt.Errorf("final temperature %.6g K, reference %.6g", got.FinalTempK, want.FinalTempK)
	}
	return fmt.Sprintf("checked against %s seed %d", referencePath, o.seed), nil
}

// cmdReference reruns every workload at full size for the given seeds
// and rewrites testdata/reference.json from what they computed. Run it
// only when a change is meant to alter the answers.
func cmdReference(args []string) error {
	fs := flag.NewFlagSet("reference", flag.ExitOnError)
	seeds := fs.String("seeds", "1,2,3", "comma-separated seeds to record")
	out := fs.String("out", "out", "scratch directory")
	fs.Parse(args)
	ref := reference{
		Note: "Outputs of `bench reference`. qmd-*: per-step energies checked to 1e-4 Ha, SCF iterations recorded; " +
			"reactive-lial: last 8 step energies to 1e-9 relative and the exact final census; " +
			"serve-jobs: final energy of each of the 300 jobs to 1e-9 relative, shared by serve-standalone and serve-cluster.",
		Entries: map[string]map[string]output{},
	}
	for _, s := range strings.Split(*seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return err
		}
		for _, w := range workloads {
			if _, done := ref.Entries[w.Ref][s]; done {
				continue
			}
			fmt.Fprintf(os.Stderr, "bench: reference %s seed %d\n", w.Name, seed)
			m, err := measure(w, runOpts{seed: seed, out: *out, setups: 1}, false)
			if err != nil {
				return err
			}
			if m.res.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d ops failed: %s", w.Name, seed, m.res.Failed, m.res.FailNote)
			}
			if ref.Entries[w.Ref] == nil {
				ref.Entries[w.Ref] = map[string]output{}
			}
			ref.Entries[w.Ref][s] = m.res.Out
		}
	}
	data, err := json.MarshalIndent(&ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(data, '\n'), 0o644)
}
