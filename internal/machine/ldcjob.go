package machine

import "math"

// LDCJob describes the per-QMD-step workload of an LDC-DFT run at scale.
// The defaults follow the paper's production geometry: ~64–100 atoms per
// domain, ~2 electrons/bands per atom, plane-wave bases of >10⁴ unknowns
// per electron (§1), 3 SCF iterations × 3 CG iterations per step (§5.1).
type LDCJob struct {
	Atoms          int64
	Domains        int64
	BandsPerDomain int
	PlaneWaves     int   // reciprocal-space basis size per band
	LocalGridPts   int   // real-space FFT grid points per domain
	GlobalGridPts  int64 // global density grid points
	ProjPerDomain  int   // nonlocal projectors per domain
	SCFPerStep     int
	CGPerSCF       int
}

// JobForAtoms builds a paper-scale job for the given total atom count and
// granularity (atoms per domain).
func JobForAtoms(totalAtoms int64, atomsPerDomain float64) LDCJob {
	domains := int64(math.Ceil(float64(totalAtoms) / atomsPerDomain))
	if domains < 1 {
		domains = 1
	}
	bands := int(math.Ceil(atomsPerDomain * 2.2)) // ≈2 electrons/atom, +10% margin
	// Extended-domain FFT grid: ~40³ points per atom's volume at
	// production resolution, domain ≈ (l+2b)³ with l* = 2b.
	grid := int(atomsPerDomain * 138240)
	return LDCJob{
		Atoms:          totalAtoms,
		Domains:        domains,
		BandsPerDomain: bands,
		PlaneWaves:     grid / 8, // the Ecut sphere fills ~1/8 of the grid
		LocalGridPts:   grid,
		GlobalGridPts:  totalAtoms * 2048, // coarser global density mesh
		ProjPerDomain:  int(atomsPerDomain * 2),
		SCFPerStep:     3,
		CGPerSCF:       3,
	}
}

// DomainSolveGFlops returns the floating-point work of ONE domain for one
// full QMD step (SCF × CG iterations), from the kernel inventory of the
// plane-wave solver:
//
//   - Hamiltonian applications: 3-D FFT pair + local potential per band,
//   - nonlocal projectors as BLAS3 (Eq. (5)),
//   - overlap construction + Cholesky orthonormalization + subspace
//     rotation (§3.3),
//   - density accumulation (one FFT per band).
func (j LDCJob) DomainSolveGFlops() float64 {
	nb := float64(j.BandsPerDomain)
	np := float64(j.PlaneWaves)
	ng := float64(j.LocalGridPts)
	pr := float64(j.ProjPerDomain)
	fft := 5 * ng * math.Log2(ng) // one 3-D FFT
	// Nonlocal projectors: two GEMMs of (Np×Nproj)·(Nproj×Nb), Eq. (5).
	nonlocal := 16 * np * pr * nb
	apply := nb*(2*fft+8*ng) + nonlocal
	ortho := 8*np*nb*nb /*overlap*/ + 8*np*nb*nb /*rotation*/ + (4.0/3.0)*nb*nb*nb
	density := nb * (fft + 4*ng)
	perCG := apply + ortho
	total := float64(j.SCFPerStep) * (float64(j.CGPerSCF)*perCG + density)
	return total / 1e9
}

// StepTime itemizes one modelled QMD step.
type StepTime struct {
	Compute    float64 // per-domain solves
	GlobalComm float64 // density/potential tree reductions + μ iterations
	Halo       float64 // nearest-neighbour ρα exchange
	AllToAll   float64 // intra-domain band↔space transposes
	Imbalance  float64 // calibrated load-imbalance growth
	Total      float64
	GFlops     float64 // useful flops for the whole step
}

// Calibration collects the model's free constants. DefaultCalibration's
// values are fitted so the model reproduces the paper's three anchor
// measurements: 441 s/SCF for the 50.3M-atom system on 786,432 cores
// (§5.2), weak-scaling efficiency 0.984 (Fig. 5), and strong-scaling
// efficiency 0.803 over a 16× core increase (Fig. 6).
type Calibration struct {
	// ImbalancePerLevel is the fractional compute-time growth per
	// doubling of the machine (domain-cost variance at scale).
	ImbalancePerLevel float64
	// IntraDomainSerial is the Amdahl serial fraction of a domain solve
	// when parallelized within its communicator.
	IntraDomainSerial float64
	// MuIterations is the Newton–Raphson chemical-potential iteration
	// count per SCF step (each costs one scalar allreduce).
	MuIterations int
}

// DefaultCalibration returns the fitted constants.
func DefaultCalibration() Calibration {
	return Calibration{
		ImbalancePerLevel: 0.00105,
		IntraDomainSerial: 0.00038,
		MuIterations:      8,
	}
}

// SimulateQMDStep models the wall-clock time of one QMD step of job j on
// P cores of machine m.
func SimulateQMDStep(m *Machine, p int, j LDCJob, cal Calibration) StepTime {
	var st StepTime
	world := NewComm(m, p)
	coresPerDom := float64(p) / float64(j.Domains)
	if coresPerDom < 1 {
		coresPerDom = 1
	}
	domGF := j.DomainSolveGFlops()
	st.GFlops = domGF * float64(j.Domains)

	// Domain solves: domains are independent; waves of domains run when
	// there are more domains than core groups. Within a core group the
	// band+space decomposition parallelizes the solve up to an Amdahl
	// serial fraction (§3.3).
	waves := math.Ceil(float64(j.Domains) * coresPerDom / float64(p))
	serial := cal.IntraDomainSerial
	rate := m.CorePeakGF() * m.KernelEff
	tOneDomain := domGF * ((1-serial)/coresPerDom + serial) / rate
	st.Compute = tOneDomain * waves

	// Intra-domain all-to-alls: one band↔space transpose per CG iteration
	// moving the wave-function block once.
	domComm := world.Split(int(math.Max(1, float64(j.Domains))))
	wfBytes := int64(16 * j.PlaneWaves * j.BandsPerDomain)
	if coresPerDom > 1 {
		st.AllToAll = float64(j.SCFPerStep*j.CGPerSCF) *
			domComm.AllToAllTime(wfBytes/int64(coresPerDom))
	}

	// Global density reduction + Hartree tree traversal per SCF.
	nodes := float64(p) / float64(m.CoresPerNode)
	perNodeDensity := int64(8 * float64(j.GlobalGridPts) / math.Max(nodes, 1))
	st.GlobalComm = float64(j.SCFPerStep) * world.ReduceScatterTime(perNodeDensity)
	// μ Newton–Raphson: scalar allreduces.
	st.GlobalComm += float64(j.SCFPerStep*cal.MuIterations) * world.AllReduceTime(8)

	// Halo exchange of buffer densities per SCF.
	haloBytes := int64(8 * float64(j.LocalGridPts) / 4) // one face shell ≈ grid/4
	st.Halo = float64(j.SCFPerStep) * world.HaloExchangeTime(haloBytes)

	// Load imbalance grows slowly with machine levels.
	levels := math.Max(0, math.Log2(float64(p)/float64(m.CoresPerNode)))
	st.Imbalance = st.Compute * cal.ImbalancePerLevel * levels

	st.Total = st.Compute + st.GlobalComm + st.Halo + st.AllToAll + st.Imbalance
	return st
}

// Speed returns the paper's time-to-solution metric: atoms × SCF
// iterations per second (§2).
func (st StepTime) Speed(j LDCJob) float64 {
	if st.Total == 0 {
		return 0
	}
	return float64(j.Atoms) * float64(j.SCFPerStep) / st.Total
}

// FlopRate returns the modelled sustained GFLOP/s of the step.
func (st StepTime) FlopRate() float64 {
	if st.Total == 0 {
		return 0
	}
	return st.GFlops / st.Total
}
