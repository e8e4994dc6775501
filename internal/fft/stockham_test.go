package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
)

// bitwiseEq treats ±0 as equal: a pruned transform replaces lines of
// computed zeros by cleared ones, which can only flip the sign of a zero.
func bitwiseEq(a, b complex128) bool {
	return real(a) == real(b) && imag(a) == imag(b)
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestTileInvariant is the invariant every relative pin of the 3-D
// transforms rests on (pruned = dense, batch = single, GOMAXPROCS 1/2/4
// agree — all of which regroup lines into different tiles): the bits of
// a line's transform do not depend on the tile width, on the line's
// position in the tile, or on which other lines share it. Forward,
// inverse and raw inverse are one kernel plus a reversal, so all three
// modes are compared on every line.
func TestTileInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{8, 9, 10, 12, 16, 18, 20, 60, 7, 34, 67} {
		p := NewPlan(n)
		for _, w := range []int{1, 2, 3, 5, 16} {
			lines := make([][]complex128, w)
			tile := make([]complex128, n*w)
			for l := range lines {
				lines[l] = randVec(rng, n)
				for j, v := range lines[l] {
					tile[j*w+l] = v
				}
			}
			p.forwardS(tile, make([]complex128, w*n), w)
			for l, x := range lines {
				raw := rawInverse(p, x)
				fwd := append([]complex128(nil), x...)
				p.Forward(fwd)
				inv := append([]complex128(nil), x...)
				p.Inverse(inv)
				for j := 0; j < n; j++ {
					r := tile[rev(j, n, true)*w+l]
					if !sameBits(tile[j*w+l], fwd[j]) || !sameBits(r, raw[j]) ||
						!sameBits(scale(r, 1/float64(n)), inv[j]) {
						t.Fatalf("n=%d w=%d line %d element %d: tile bits differ from the line transformed alone", n, w, l, j)
					}
				}
			}
		}
	}
}

// TestProcsBitwiseEqual runs every 3-D transform family at GOMAXPROCS 1,
// 2 and 4 — three different cuts of the passes into tiles — and requires
// identical bits.
func TestProcsBitwiseEqual(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{10, 12, 16, 18} {
		p := NewPlan3(n, n, n)
		sup := p.NewSupport(sphereSupport(p, 5))
		rp := NewRPlan3(n, n, n)
		rng := rand.New(rand.NewSource(int64(n)))
		x := randVec(rng, p.Size())
		re := randReal(rng, p.Size())
		vr := randReal(rng, p.Size())
		var ref [][]complex128
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			var got [][]complex128
			run := func(f func(y []complex128)) {
				y := append([]complex128(nil), x...)
				f(y)
				got = append(got, y)
			}
			run(p.Forward)
			run(p.Inverse)
			run(func(y []complex128) { p.InverseRawMulReal(y, vr) })
			run(func(y []complex128) { sup.ClearSticks(y); sup.Inverse(y) })
			run(func(y []complex128) { sup.ClearSticks(y); sup.InverseRawMulReal(y, vr) })
			half := make([]complex128, rp.HSize())
			rp.Forward(re, half)
			got = append(got, append([]complex128(nil), half...))
			back := make([]float64, rp.Size())
			rp.Inverse(half, back)
			got = append(got, widen(back))
			if ref == nil {
				ref = got
				continue
			}
			for k := range got {
				for i := range got[k] {
					if !sameBits(got[k][i], ref[k][i]) {
						t.Fatalf("N=%d: transform %d at GOMAXPROCS=%d differs from GOMAXPROCS=1 at %d", n, k, procs, i)
					}
				}
			}
		}
	}
}

// TestSchedules pins the factor order the engine comment states.
func TestSchedules(t *testing.T) {
	for n, want := range map[int][]int{
		1: nil, 2: {2}, 8: {4, 2}, 10: {5, 2}, 12: {4, 3}, 16: {4, 4}, 18: {3, 3, 2},
		20: {4, 5}, 60: {4, 5, 3}, 34: {2, 17}, 49: {7, 7}, 1001: {7, 11, 13},
		67: {67}, 134: {2, 67}, 1009: {1009},
	} {
		var got []int
		for _, st := range NewPlan(n).stages {
			got = append(got, st.r)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("n=%d: schedule %v, want %v", n, got, want)
		}
	}
}

// BenchmarkForwardLine is the per-line cost of the engine at the lengths
// the domain grids use: a lone line (s = 1) and a full tile of tileB
// lines. ns/line is the number ROADMAP item 2 is judged by — a 10- or
// 12-point line against its power-of-two neighbours.
func BenchmarkForwardLine(b *testing.B) {
	for _, n := range []int{8, 10, 12, 16, 18, 20, 32} {
		for _, w := range []int{1, tileB} {
			name := "single"
			if w > 1 {
				name = "tile"
			}
			b.Run(fmt.Sprintf("n%d/%s", n, name), func(b *testing.B) {
				p := NewPlan(n)
				orig := benchVec(n * w)
				x := append([]complex128(nil), orig...)
				scratch := make([]complex128, w*n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.forwardS(x, scratch, w)
					if cmplx.IsInf(x[0]) || cmplx.IsNaN(x[0]) {
						// Repeated unnormalized transforms grow by √n each.
						copy(x, orig)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w), "ns/line")
			})
		}
	}
}
