package expmatrix

import (
	"fmt"
	"math"
	"sort"

	"ldcdft/internal/analysis"
	"ldcdft/internal/atoms"
	"ldcdft/internal/reactive"
	"ldcdft/internal/serve"
	"ldcdft/internal/units"
)

// Validator kinds. Cell validators judge one cell's record; matrix
// validators judge the whole grid.
const (
	// KindObservable (cell) checks the named Observable of a computed
	// cell against Target or, with Reference, against that observable of
	// the same cell (the paper's number; a cell without it is not
	// judged). Tolerance > 0 bounds the absolute difference; otherwise
	// the value — with Reference the ratio value/reference, so ±10 % is
	// Min 0.9, Max 1.1 — must lie in [Min, Max] (Max 0 = unbounded).
	KindObservable = "observable"
	// KindEnergyDrift (cell) bounds the per-step potential-energy drift
	// |E_last − E_first| / steps over the recorded series: Max is the
	// allowed drift in Hartree per step.
	KindEnergyDrift = "energy-drift"
	// KindTempTrack (cell) checks the mean temperature over the last
	// half of the recorded series against Target (0 = the cell's
	// "temp_k" axis value) within relative Tolerance (0 = 0.25).
	KindTempTrack = "temp-track"
	// KindCensusH2 (cell) bounds the final H₂ census count to
	// [Min, Max] (Max 0 = unbounded).
	KindCensusH2 = "census-h2"
	// KindRateRange (cell) bounds the H₂ production rate per LiAl pair
	// per second to [Min, Max] (Max 0 = unbounded).
	KindRateRange = "rate-range"
	// KindRDFFirstPeak (cell) recomputes g(r) between SpeciesA and
	// SpeciesB (default O, H) on the final frame and checks the first
	// peak position (Bohr) against Target within Tolerance; Min, when
	// set, is the minimum peak height.
	KindRDFFirstPeak = "rdf-first-peak"

	// KindArrhenius (matrix) fits rate = A·exp(−Ea/kT) across the
	// temperature axis (Axis, default "temp_k"), averaging rates over
	// cells at equal temperature, and checks Ea in eV against Target
	// within Tolerance — the Fig. 9(a) check against the paper's
	// 0.068 eV.
	KindArrhenius = "arrhenius"
	// KindBufferConverge (matrix) checks the buffer-size error scan:
	// the error of Observable (default: a job's final energy) against
	// the cells' Reference observable (default: the value at the largest
	// buffer) must be non-increasing in Axis (default "buf_n"), within
	// absolute slack Tolerance (Hartree).
	KindBufferConverge = "buffer-converge"
)

// ValidatorSpec is one observable check with its tolerances. The
// meaning of the numeric fields depends on Kind (see the Kind*
// constants).
type ValidatorSpec struct {
	// Name labels the check in reports; defaults to Kind.
	Name      string  `json:"name,omitempty"`
	Kind      string  `json:"kind"`
	Target    float64 `json:"target,omitempty"`
	Tolerance float64 `json:"tolerance,omitempty"`
	Min       float64 `json:"min,omitempty"`
	Max       float64 `json:"max,omitempty"`
	// SpeciesA/SpeciesB select the g(r) pair for rdf-first-peak.
	SpeciesA string `json:"species_a,omitempty"`
	SpeciesB string `json:"species_b,omitempty"`
	// Axis names the grid axis a matrix validator sweeps.
	Axis string `json:"axis,omitempty"`
	// Observable and Reference name observables of a computed cell.
	Observable string `json:"observable,omitempty"`
	Reference  string `json:"reference,omitempty"`
}

func (v *ValidatorSpec) label() string {
	if v.Name != "" {
		return v.Name
	}
	return v.Kind
}

// Validate rejects malformed validator specs.
func (v *ValidatorSpec) Validate() error {
	switch v.Kind {
	case KindObservable:
		if v.Observable == "" || (v.Tolerance <= 0 && v.Min == 0 && v.Max == 0) {
			return fmt.Errorf("expmatrix: %s needs an observable and a tolerance or min/max", v.label())
		}
	case KindEnergyDrift:
		if v.Max <= 0 {
			return fmt.Errorf("expmatrix: %s needs max > 0 (Hartree/step)", v.label())
		}
	case KindTempTrack, KindCensusH2, KindRateRange:
		// All bounds optional.
	case KindRDFFirstPeak:
		if v.Target <= 0 || v.Tolerance <= 0 {
			return fmt.Errorf("expmatrix: %s needs target and tolerance > 0 (Bohr)", v.label())
		}
	case KindArrhenius:
		if v.Tolerance <= 0 {
			return fmt.Errorf("expmatrix: %s needs tolerance > 0 (eV)", v.label())
		}
	case KindBufferConverge:
		// Tolerance optional (0 = strict monotone).
		if v.Reference != "" && v.Observable == "" {
			return fmt.Errorf("expmatrix: %s: a reference needs the observable it is the reference of", v.label())
		}
	default:
		return fmt.Errorf("expmatrix: unknown validator kind %q", v.Kind)
	}
	return nil
}

// ValidationResult is one evaluated check.
type ValidationResult struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	Pass     bool    `json:"pass"`
	Measured float64 `json:"measured"`
	Detail   string  `json:"detail,omitempty"`
	// Skipped: the cell carries no reference; passes, renders as "—".
	Skipped bool `json:"skipped,omitempty"`
}

func fail(v *ValidatorSpec, format string, args ...any) ValidationResult {
	return ValidationResult{Name: v.label(), Kind: v.Kind, Detail: fmt.Sprintf(format, args...)}
}

// Evaluate runs a cell validator against one cell's results.
func (v *ValidatorSpec) Evaluate(cell Cell, res *serve.Results) ValidationResult {
	if res == nil {
		return fail(v, "no results")
	}
	out := ValidationResult{Name: v.label(), Kind: v.Kind}
	switch v.Kind {
	case KindEnergyDrift:
		n := len(res.EnergiesHa)
		if n < 2 {
			return fail(v, "energy series too short (%d samples)", n)
		}
		for _, e := range res.EnergiesHa {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				return fail(v, "non-finite energy in series")
			}
		}
		out.Measured = math.Abs(res.EnergiesHa[n-1]-res.EnergiesHa[0]) / float64(n-1)
		out.Pass = out.Measured <= v.Max
		out.Detail = fmt.Sprintf("|ΔE|/step = %.3e Ha (max %.3e)", out.Measured, v.Max)
	case KindTempTrack:
		n := len(res.TemperaturesK)
		if n == 0 {
			return fail(v, "no temperature series")
		}
		tail := res.TemperaturesK[n/2:]
		var sum float64
		for _, t := range tail {
			sum += t
		}
		out.Measured = sum / float64(len(tail))
		target := v.Target
		if target == 0 {
			target = cell.Get("temp_k", 0)
		}
		if target <= 0 {
			return fail(v, "no target temperature (set target or a temp_k axis)")
		}
		tol := v.Tolerance
		if tol == 0 {
			tol = 0.25
		}
		out.Pass = math.Abs(out.Measured-target) <= tol*target
		out.Detail = fmt.Sprintf("mean %.0f K vs target %.0f K (±%.0f%%)", out.Measured, target, tol*100)
	case KindCensusH2:
		if res.Census == nil {
			return fail(v, "no census (not a reactive job?)")
		}
		out.Measured = float64(res.Census.H2)
		out.Pass = out.Measured >= v.Min && (v.Max == 0 || out.Measured <= v.Max)
		out.Detail = fmt.Sprintf("%d H₂ (min %g)", res.Census.H2, v.Min)
	case KindRateRange:
		out.Measured = res.RatePerPairPerSec
		out.Pass = out.Measured >= v.Min && (v.Max == 0 || out.Measured <= v.Max)
		out.Detail = fmt.Sprintf("%.3g /pair/s in [%g, %g]", out.Measured, v.Min, v.Max)
	case KindRDFFirstPeak:
		pos, height, err := rdfFirstPeak(res, v.SpeciesA, v.SpeciesB)
		if err != nil {
			return fail(v, "%v", err)
		}
		out.Measured = pos
		out.Pass = math.Abs(pos-v.Target) <= v.Tolerance && (v.Min == 0 || height >= v.Min)
		out.Detail = fmt.Sprintf("first peak at %.2f Bohr, height %.2f (target %.2f±%.2f)",
			pos, height, v.Target, v.Tolerance)
	default:
		return fail(v, "not a cell validator")
	}
	return out
}

// evaluateObservable runs an observable validator on a computed cell.
func (v *ValidatorSpec) evaluateObservable(obs map[string]float64) ValidationResult {
	val, ok := obs[v.Observable]
	if !ok {
		return fail(v, "cell has no observable %q", v.Observable)
	}
	out := ValidationResult{Name: v.label(), Kind: v.Kind, Measured: val}
	against := v.Target
	if v.Reference != "" {
		if against, ok = obs[v.Reference]; !ok {
			out.Pass, out.Skipped = true, true
			return out
		}
	}
	if v.Tolerance > 0 {
		out.Pass = math.Abs(val-against) <= v.Tolerance
		out.Detail = fmt.Sprintf("%s = %.6g vs %.6g (±%g)", v.Observable, val, against, v.Tolerance)
		return out
	}
	out.Detail = fmt.Sprintf("%s = %.6g", v.Observable, val)
	if v.Reference != "" {
		out.Measured = val / against
		out.Detail += fmt.Sprintf(", %.4g × %s", out.Measured, v.Reference)
	}
	out.Pass = out.Measured >= v.Min && (v.Max == 0 || out.Measured <= v.Max)
	out.Detail += fmt.Sprintf(" in [%g, %g]", v.Min, v.Max)
	return out
}

// rdfFirstPeak recomputes g(r) on the final frame of a cell.
func rdfFirstPeak(res *serve.Results, symA, symB string) (pos, height float64, err error) {
	if res.FinalSystem == nil {
		return 0, 0, fmt.Errorf("no final system snapshot")
	}
	if symA == "" {
		symA = "O"
	}
	if symB == "" {
		symB = "H"
	}
	a, b := atoms.SpeciesBySymbol(symA), atoms.SpeciesBySymbol(symB)
	if a == nil || b == nil {
		return 0, 0, fmt.Errorf("unknown species pair %q/%q", symA, symB)
	}
	sys, err := res.FinalSystem.BuildSystem()
	if err != nil {
		return 0, 0, err
	}
	rmax := 8.0
	if half := sys.Cell.L/2 - 1e-9; rmax > half {
		rmax = half
	}
	rdf := analysis.NewRDF(rmax, 64)
	if err := rdf.Accumulate(sys, a, b); err != nil {
		return 0, 0, err
	}
	pos, height = rdf.FirstPeak(0)
	if pos == 0 {
		return 0, 0, fmt.Errorf("no g(r) peak above threshold")
	}
	return pos, height, nil
}

// evaluateMatrix runs a matrix validator across the records of the
// grid's cells (nil = unfinished).
func (v *ValidatorSpec) evaluateMatrix(cells []Cell, recs []*CellRecord) ValidationResult {
	out := ValidationResult{Name: v.label(), Kind: v.Kind}
	switch v.Kind {
	case KindArrhenius:
		axis := v.Axis
		if axis == "" {
			axis = "temp_k"
		}
		temps, rates := groupMeans(cells, recs, axis, "", "", func(r *serve.Results) float64 {
			return r.RatePerPairPerSec
		})
		if len(temps) < 2 {
			return fail(v, "need ≥2 temperatures with results, have %d", len(temps))
		}
		eaHa, _ := reactive.ArrheniusFit(temps, rates)
		if eaHa == 0 {
			return fail(v, "degenerate Arrhenius fit (non-positive rates?) over %d temperatures", len(temps))
		}
		out.Measured = units.HartreeToEV(eaHa)
		target := v.Target
		out.Pass = math.Abs(out.Measured-target) <= v.Tolerance
		out.Detail = fmt.Sprintf("Ea = %.3f eV vs paper %.3f eV (±%.3f)", out.Measured, target, v.Tolerance)
	case KindBufferConverge:
		axis := v.Axis
		if axis == "" {
			axis = "buf_n"
		}
		// energies are errors already when the cells carry their reference.
		bufs, energies := groupMeans(cells, recs, axis, v.Observable, v.Reference, func(r *serve.Results) float64 {
			return r.FinalEnergyHa
		})
		if len(bufs) < 2 {
			return fail(v, "need ≥2 %s values with results, have %d", axis, len(bufs))
		}
		ref := 0.0
		if v.Reference == "" {
			ref = energies[len(energies)-1] // largest buffer = reference
		}
		out.Pass = true
		prev := math.Inf(1)
		for i, e := range energies {
			errHa := math.Abs(e - ref)
			if i == 0 {
				out.Measured = errHa
			}
			if errHa > prev+v.Tolerance {
				out.Pass = false
			}
			prev = errHa
		}
		out.Detail = fmt.Sprintf("error at smallest %s: %.3e Ha, non-increasing over %d sizes", axis, out.Measured, len(bufs))
	default:
		return fail(v, "not a matrix validator")
	}
	return out
}

// groupMeans averages one quantity — the named observable (less the
// reference observable, if named) or, unnamed, job of a job cell's
// results — over the completed cells sharing the same value of axis,
// returning parallel slices sorted by the axis value ascending. Cells
// without the quantity are skipped.
func groupMeans(cells []Cell, recs []*CellRecord, axis, observable, reference string, job func(*serve.Results) float64) (keys, means []float64) {
	sums := map[float64]float64{}
	counts := map[float64]int{}
	for i, c := range cells {
		if i >= len(recs) || recs[i] == nil {
			continue
		}
		k, ok := c[axis]
		if !ok {
			continue
		}
		val, ok := recs[i].Observables[observable]
		if observable == "" && recs[i].Results != nil {
			val, ok = job(recs[i].Results), true
		} else if r, has := recs[i].Observables[reference]; reference != "" {
			val, ok = val-r, ok && has
		}
		if !ok {
			continue
		}
		sums[k] += val
		counts[k]++
	}
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	for _, k := range keys {
		means = append(means, sums[k]/float64(counts[k]))
	}
	return keys, means
}
