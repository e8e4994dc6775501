package scf

// Mixer blends input and output densities between SCF iterations to damp
// charge sloshing. The SCF vector may come in segments — the LDC engine's
// is the global density plus every domain's ρα history — and one Mix
// takes one step over all of them, in place: no segment is copied into a
// concatenated vector. Implementations are stateful across iterations.
type Mixer interface {
	// Mix overwrites every in[k] with the next input, given the output
	// out[k] that the iteration produced from it; out is not written.
	// Until Reset, every call passes the same segment lengths in the
	// same order.
	Mix(in, out [][]float64)
	// Reset clears history (e.g. at the start of a new MD step).
	Reset()
}

// NewMixer returns the mixer both SCF drivers use: Anderson acceleration
// when anderson is set, else linear mixing, with mixing parameter alpha.
func NewMixer(anderson bool, alpha float64) Mixer {
	if anderson {
		return &AndersonMixer{Alpha: alpha}
	}
	return &LinearMixer{Alpha: alpha}
}

// LinearMixer is simple damped mixing: x ← (1−α)x_in + α x_out, point by
// point, so mixing segments together or apart gives the same bits.
type LinearMixer struct{ Alpha float64 }

// Mix implements Mixer.
func (m *LinearMixer) Mix(in, out [][]float64) {
	a := m.Alpha
	for k, x := range in {
		y := out[k][:len(x)]
		for i := range x {
			x[i] = (1-a)*x[i] + a*y[i]
		}
	}
}

// Reset implements Mixer.
func (m *LinearMixer) Reset() {}

// AndersonMixer implements two-point Anderson acceleration: the new
// input is the linear mix of the optimal combination of the current and
// previous (in, out) pairs, with one combination coefficient for the
// whole vector. It typically halves the SCF iteration count vs linear
// mixing for the systems in this repo. Its history — the previous input
// and residual of every segment — is allocated on the first Mix after a
// Reset and released by Reset.
type AndersonMixer struct {
	Alpha  float64
	prevIn [][]float64 // previous input, per segment
	prevF  [][]float64 // previous residual out − in, per segment
}

// Mix implements Mixer.
func (m *AndersonMixer) Mix(in, out [][]float64) {
	theta := 0.0
	if m.prevIn == nil {
		m.prevIn = make([][]float64, len(in))
		m.prevF = make([][]float64, len(in))
		for k, x := range in {
			m.prevIn[k] = make([]float64, len(x))
			m.prevF[k] = make([]float64, len(x))
		}
	} else {
		// θ minimizes |(1−θ)F + θ F_prev|² over every segment, F = out − in.
		var num, den float64
		for k, x := range in {
			y, fPrev := out[k][:len(x)], m.prevF[k][:len(x)]
			for i := range x {
				f := y[i] - x[i]
				d := f - fPrev[i]
				num += f * d
				den += d * d
			}
		}
		if den > 1e-30 {
			// Keep the extrapolation bounded for robustness.
			theta = min(max(num/den, -2), 2)
		}
	}
	// With θ = 0 (the first step) this is x + α F exactly.
	for k, x := range in {
		y, xPrev, fPrev := out[k][:len(x)], m.prevIn[k][:len(x)], m.prevF[k][:len(x)]
		for i := range x {
			f := y[i] - x[i]
			inBar := (1-theta)*x[i] + theta*xPrev[i]
			fBar := (1-theta)*f + theta*fPrev[i]
			xPrev[i], fPrev[i] = x[i], f
			x[i] = inBar + m.Alpha*fBar
		}
	}
}

// Reset implements Mixer.
func (m *AndersonMixer) Reset() {
	m.prevIn = nil
	m.prevF = nil
}
