package machine

// ScalingPoint is one row of a scaling experiment (Figs. 5–6).
type ScalingPoint struct {
	Cores      int
	Atoms      int64
	Step       StepTime
	WallClock  float64 // seconds per QMD step
	Speed      float64 // atoms × QMD steps / second (isogranular speed, §5.1)
	Efficiency float64 // vs the first point
}

// WeakScaling models Fig. 5: scaled workloads of atomsPerCore·P atoms on
// P cores, one DC domain per core (the paper sets the number of domains
// to P).
func WeakScaling(m *Machine, atomsPerCore int, cores []int, cal Calibration) []ScalingPoint {
	out := make([]ScalingPoint, 0, len(cores))
	var baseSpeed float64
	for _, p := range cores {
		atoms := int64(atomsPerCore) * int64(p)
		job := JobForAtoms(atoms, float64(atomsPerCore))
		st := SimulateQMDStep(m, p, job, cal)
		speed := float64(atoms) / st.Total // atoms·steps/s
		pt := ScalingPoint{Cores: p, Atoms: atoms, Step: st, WallClock: st.Total, Speed: speed}
		if baseSpeed == 0 {
			baseSpeed = speed / float64(p)
			pt.Efficiency = 1
		} else {
			pt.Efficiency = speed / float64(p) / baseSpeed
		}
		out = append(out, pt)
	}
	return out
}

// StrongScaling models Fig. 6: a fixed system on increasing core counts.
// The paper's workload is the 77,889-atom LiAl-water system.
func StrongScaling(m *Machine, atoms int64, atomsPerDomain float64, cores []int, cal Calibration) []ScalingPoint {
	out := make([]ScalingPoint, 0, len(cores))
	job := JobForAtoms(atoms, atomsPerDomain)
	var baseTime float64
	var baseCores int
	for _, p := range cores {
		st := SimulateQMDStep(m, p, job, cal)
		pt := ScalingPoint{Cores: p, Atoms: atoms, Step: st, WallClock: st.Total,
			Speed: float64(atoms) / st.Total}
		if baseTime == 0 {
			baseTime = st.Total
			baseCores = p
			pt.Efficiency = 1
		} else {
			speedup := baseTime / st.Total
			pt.Efficiency = speedup / (float64(p) / float64(baseCores))
		}
		out = append(out, pt)
	}
	return out
}
