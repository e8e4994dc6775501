// The one 1-D engine (§4.2): an iterative Stockham autosort transform
// over a per-length factor schedule, for every length — a prime factor
// above 5 goes through the generic butterfly at O(p) per output and p²
// roots per plan. Every kernel computes the forward
// n-point DFT of s interleaved lines — element j of line t sits at
// x[j*s+t] — so a tile of w lines in [element][line] layout is the same
// transform started at stride s = w, and a lone line is the tile of
// width 1. A radix-r stage of remaining length r·m reads
// x[q + s(p + jm)], j < r, butterflies the r values, multiplies output
// k by the twiddle ω^{pk} and writes y[q + s(rp + k)]; then the stride
// grows to s·r. The inner loop runs over q (the lines, then the already
// finished digits), so a twiddle is loaded once per row, not once per
// line, and the unit column p = 0 — all of the last stage — multiplies
// nothing.
//
// Tile invariant: the arithmetic done on x[…+q] is the same straight-line
// expression for every q and reads no other q, so the bits of a line's
// result do not depend on the tile width, on the line's position in the
// tile, or on which other lines share it (TestTileInvariant).
//
// Inner loops run on rows cut to one common length, so every bounds check
// is eliminated (`make bce` pins this file to zero IsInBounds).
package fft

import "math"

// stage is one butterfly pass of a schedule.
type stage struct {
	r, m  int          // radix, and the length left after this stage
	tw    []complex128 // ω_{rm}^{pk} at [(p−1)(r−1) + k−1], p = 1…m−1, k = 1…r−1
	roots []complex128 // generic radix only: the r×r matrix ω_r^{jk} at [k*r+j]
}

// root returns e^{−2πik/n}.
func root(k, n int) complex128 {
	sin, cos := math.Sincos(-2 * math.Pi * float64(k%n) / float64(n))
	return complex(cos, sin)
}

// newStages builds the schedule of length n: radix 4 while it divides,
// then 5, 3, a last 2, then the remaining primes through the generic
// butterfly. Large radices first keep the stride — the inner loop — of a
// lone line long from the second stage on; the generic stage last runs
// at m = 1, where it has no twiddles.
func newStages(n int) []stage {
	var out []stage
	for _, r := range []int{4, 5, 3, 2} {
		for ; n%r == 0; n /= r {
			out = append(out, newStage(r, n/r))
		}
	}
	for r := 7; n > 1; r += 2 {
		for ; n%r == 0; n /= r {
			out = append(out, newStage(r, n/r))
		}
	}
	return out
}

func newStage(r, m int) stage {
	st := stage{r: r, m: m}
	for p := 1; p < m; p++ {
		for k := 1; k < r; k++ {
			st.tw = append(st.tw, root(p*k, r*m))
		}
	}
	for jk := 0; r > 5 && jk < r*r; jk++ {
		st.roots = append(st.roots, root(jk/r*(jk%r), r))
	}
	return st
}

// forwardS computes the forward DFT X[k] = Σ x[j] e^{−2πi jk/n} of the
// s interleaved lines of x[:n·s] in place, using caller-owned scratch y
// (len ≥ n·s) as the other half of the ping-pong. The last stage has
// m = 1, so it maps every position to itself: the hard-coded butterflies
// run it in place or straight back into x, whichever side the data is
// on, and no trailing copy is needed; only a schedule ending in a
// generic stage on the wrong parity pays one. There is no inverse
// kernel: the raw inverse Σ X[k] e^{+2πi jk/n} is the forward transform
// read at index (n−j) mod n, a reversal every caller folds into the pass
// that writes its result out. No perf counters are touched; batch
// drivers attribute modelled FLOPs once per pass instead of per line.
func (p *Plan) forwardS(x, y []complex128, s int) {
	x, y = x[:p.n*s], y[:p.n*s]
	inX := true
	stages := p.stages
	for i := range stages {
		st := &stages[i]
		src, dst := x, y
		if !inX {
			src = y
		}
		if inX = !inX || (i == len(stages)-1 && st.r <= 5); inX {
			dst = x
		}
		switch st.r {
		case 2:
			st.radix2(src, dst, s)
		case 3:
			st.radix3(src, dst, s)
		case 4:
			st.radix4(src, dst, s)
		case 5:
			st.radix5(src, dst, s)
		default:
			st.generic(src, dst, s)
		}
		s *= st.r
	}
	if !inX {
		copy(x, y)
	}
}

// mulNegI returns −i·z, the quarter turn of the forward transform.
func mulNegI(z complex128) complex128 { return complex(imag(z), -real(z)) }

// scale returns c·z for real c at two multiplies.
func scale(z complex128, c float64) complex128 { return complex(real(z)*c, imag(z)*c) }

// row returns row i of a tile of width s. Every operand row of a stage
// is cut with the same s, which is what lets the compiler drop the bounds
// checks of the inner loops.
func row(x []complex128, i, s int) []complex128 { return x[i*s:][:s] }

func (st *stage) radix2(x, y []complex128, s int) {
	m, tw := st.m, st.tw
	for p := 0; p < m; p++ {
		a0, a1 := row(x, p, s), row(x, p+m, s)
		b0, b1 := row(y, 2*p, s), row(y, 2*p+1, s)
		if p == 0 {
			for q, u := range a0 {
				v := a1[q]
				b0[q], b1[q] = u+v, u-v
			}
			continue
		}
		if len(tw) < 1 {
			return // never: one twiddle per p ≥ 1; stated for the compiler
		}
		w := tw[0]
		tw = tw[1:]
		for q, u := range a0 {
			v := a1[q]
			b0[q], b1[q] = u+v, (u-v)*w
		}
	}
}

// sin60 is sin(2π/3).
const sin60 = 0.86602540378443864676372317075294

func (st *stage) radix3(x, y []complex128, s int) {
	m, tw := st.m, st.tw
	for p := 0; p < m; p++ {
		a0, a1, a2 := row(x, p, s), row(x, p+m, s), row(x, p+2*m, s)
		b0, b1, b2 := row(y, 3*p, s), row(y, 3*p+1, s), row(y, 3*p+2, s)
		if p == 0 {
			for q, u := range a0 {
				t1 := a1[q] + a2[q]
				t2 := u - scale(t1, 0.5)
				t3 := mulNegI(scale(a1[q]-a2[q], sin60))
				b0[q], b1[q], b2[q] = u+t1, t2+t3, t2-t3
			}
			continue
		}
		if len(tw) < 2 {
			return // never, as in radix2
		}
		w1, w2 := tw[0], tw[1]
		tw = tw[2:]
		for q, u := range a0 {
			t1 := a1[q] + a2[q]
			t2 := u - scale(t1, 0.5)
			t3 := mulNegI(scale(a1[q]-a2[q], sin60))
			b0[q], b1[q], b2[q] = u+t1, (t2+t3)*w1, (t2-t3)*w2
		}
	}
}

func (st *stage) radix4(x, y []complex128, s int) {
	m, tw := st.m, st.tw
	for p := 0; p < m; p++ {
		a0, a1, a2, a3 := row(x, p, s), row(x, p+m, s), row(x, p+2*m, s), row(x, p+3*m, s)
		b0, b1, b2, b3 := row(y, 4*p, s), row(y, 4*p+1, s), row(y, 4*p+2, s), row(y, 4*p+3, s)
		if p == 0 {
			for q, u := range a0 {
				t0, t1 := u+a2[q], u-a2[q]
				t2, t3 := a1[q]+a3[q], mulNegI(a1[q]-a3[q])
				b0[q], b1[q], b2[q], b3[q] = t0+t2, t1+t3, t0-t2, t1-t3
			}
			continue
		}
		if len(tw) < 3 {
			return // never, as in radix2
		}
		w1, w2, w3 := tw[0], tw[1], tw[2]
		tw = tw[3:]
		for q, u := range a0 {
			t0, t1 := u+a2[q], u-a2[q]
			t2, t3 := a1[q]+a3[q], mulNegI(a1[q]-a3[q])
			b0[q], b1[q], b2[q], b3[q] = t0+t2, (t1+t3)*w1, (t0-t2)*w2, (t1-t3)*w3
		}
	}
}

// The 5-point constants: √5/4, sin(2π/5), sin(4π/5).
const (
	sqrt5q = 0.55901699437494742410229341718282
	sin72  = 0.95105651629515357211643933337938
	sin144 = 0.58778525229247312916870595463907
)

// radix5 is the 5-point butterfly in Winograd's form: the cosine half
// through (a1+a4) ± (a2+a3), the sine half turned by −i.
func (st *stage) radix5(x, y []complex128, s int) {
	m, tw := st.m, st.tw
	for p := 0; p < m; p++ {
		a0, a1, a2, a3, a4 := row(x, p, s), row(x, p+m, s), row(x, p+2*m, s), row(x, p+3*m, s), row(x, p+4*m, s)
		b0, b1, b2, b3, b4 := row(y, 5*p, s), row(y, 5*p+1, s), row(y, 5*p+2, s), row(y, 5*p+3, s), row(y, 5*p+4, s)
		if p == 0 {
			for q, u := range a0 {
				t1, t2, t3, t4 := a1[q]+a4[q], a2[q]+a3[q], a1[q]-a4[q], a2[q]-a3[q]
				t5 := t1 + t2
				c, d := u-scale(t5, 0.25), scale(t1-t2, sqrt5q)
				m1, m2 := c+d, c-d
				n1 := mulNegI(scale(t3, sin72) + scale(t4, sin144))
				n2 := mulNegI(scale(t3, sin144) - scale(t4, sin72))
				b0[q], b1[q], b2[q], b3[q], b4[q] = u+t5, m1+n1, m2+n2, m2-n2, m1-n1
			}
			continue
		}
		if len(tw) < 4 {
			return // never, as in radix2
		}
		w1, w2, w3, w4 := tw[0], tw[1], tw[2], tw[3]
		tw = tw[4:]
		for q, u := range a0 {
			t1, t2, t3, t4 := a1[q]+a4[q], a2[q]+a3[q], a1[q]-a4[q], a2[q]-a3[q]
			t5 := t1 + t2
			c, d := u-scale(t5, 0.25), scale(t1-t2, sqrt5q)
			m1, m2 := c+d, c-d
			n1 := mulNegI(scale(t3, sin72) + scale(t4, sin144))
			n2 := mulNegI(scale(t3, sin144) - scale(t4, sin72))
			b0[q], b1[q], b2[q], b3[q], b4[q] = u+t5, (m1+n1)*w1, (m2+n2)*w2, (m2-n2)*w3, (m1-n1)*w4
		}
	}
}

// generic is the radix-r butterfly for any other prime, one row of the
// r×r matrix ω_r^{jk} per output: output k accumulates Σ_j ω_r^{jk}·(input
// j) row by row, j ascending. At m = 1 and s = 1 it is the dense DFT of a
// prime length.
func (st *stage) generic(x, y []complex128, s int) {
	r, m, tw := st.r, st.m, st.tw
	for p := 0; p < m; p++ {
		for k := 0; k < r; k++ {
			out := row(y, r*p+k, s)
			copy(out, row(x, p, s))
			for j, w := range st.roots[k*r+1 : (k+1)*r] {
				for q, v := range row(x, p+(j+1)*m, s) {
					out[q] += v * w
				}
			}
		}
		if p == 0 {
			continue
		}
		for k, w := range tw[:r-1] {
			out := row(y, r*p+k+1, s)
			for q := range out {
				out[q] *= w
			}
		}
		tw = tw[r-1:]
	}
}
