// SIMD-shaped smooth/residual stencil kernels (§4.2). The scalar
// kernels kept the periodic wrap in the inner loop (a branch and a
// modular index per point) and indexed the full N³ arrays (live bounds
// checks). Here the wrap is peeled on all three axes — the x/y wraps
// resolve to per-plane/per-row neighbour offsets, the z wrap to the
// first and last point of each pencil — so the interior runs as
// branch-free pencil kernels over hoisted slice headers, 4-wide
// unrolled, with every index provably in range (the `make bce` target
// compiles this file with -d=ssa/check_bce and fails on any IsInBounds
// it finds). Update order is exactly the reference order, so results
// are bitwise identical to the wrapMul loops retained in
// stencil_test.go.
//
// The inter-level transfers run the same way: 3-D full weighting is the
// tensor product of the periodic [1 2 1]/4 filter and trilinear
// interpolation that of linear interpolation, so each is three 1-D
// passes — a stride-1 line pass along z and slab passes along y and x
// that combine whole contiguous rows or planes — with the wraps peeled
// to the first or last line, slab or point.
package multigrid

// smooth performs one red-black Gauss–Seidel sweep of the 7-point
// periodic Laplacian: (Σ neighbours − 6v)/h² = f. Points of one colour
// never neighbour each other, so peeling and unrolling cannot change
// the update order's data flow and the sweep stays bitwise identical to
// the reference. Only levels above the coarsest are smoothed, so n ≥ 8.
func smooth(lev *level) {
	n := lev.n
	nn := n * n
	for parity := 0; parity < 2; parity++ {
		for ix := 0; ix < n; ix++ {
			xm, xp := ix-1, ix+1
			if ix == 0 {
				xm = n - 1
			}
			if ix == n-1 {
				xp = 0
			}
			smoothPlane(lev.v, lev.f, n, lev.h2, ix*nn, xm*nn, xp*nn, parity+ix)
		}
	}
}

// smoothPlane sweeps the checkerboard points of one x-plane, peeling
// the y wrap into per-row neighbour offsets.
func smoothPlane(v, f []float64, n int, h2 float64, x0, xm, xp, par int) {
	for iy := 0; iy < n; iy++ {
		ym, yp := iy-1, iy+1
		if iy == 0 {
			ym = n - 1
		}
		if iy == n-1 {
			yp = 0
		}
		base := x0 + iy*n
		smoothRow(v[base:base+n], f[base:base+n],
			v[xm+iy*n:xm+iy*n+n], v[xp+iy*n:xp+iy*n+n],
			v[x0+ym*n:x0+ym*n+n], v[x0+yp*n:x0+yp*n+n],
			h2, par+iy)
	}
}

// smoothRow relaxes the checkerboard points (starting parity p) of one
// z-pencil. vz/fz are the pencil's own value/source rows; vxm..vyp are
// the four neighbouring pencils. The z wrap is peeled to the first and
// last point; the interior runs branch-free, 4 points (8 elements) per
// iteration. Same-colour points are 2 apart and only read the other
// colour at z±1, so the unroll is dependency-free.
func smoothRow(vz, fz, vxm, vxp, vym, vyp []float64, h2 float64, p int) {
	n := len(vz)
	if n < 4 || len(fz) < n || len(vxm) < n || len(vxp) < n || len(vym) < n || len(vyp) < n {
		return
	}
	fz = fz[:n]
	vxm, vxp = vxm[:n], vxp[:n]
	vym, vyp = vym[:n], vyp[:n]
	iz := 1
	if p&1 == 0 {
		sum := vxm[0] + vxp[0] + vym[0] + vyp[0] + vz[n-1] + vz[1]
		vz[0] = (sum - h2*fz[0]) / 6
		iz = 2
	}
	// Advancing windows: w is anchored one element below the current
	// point (so w[0]=v[z-1], w[1]=v[z], w[2]=v[z+1]); the others are
	// anchored on the point. All indices are constants against
	// length-checked windows, so every bounds check is eliminated.
	w := vz[iz-1:]
	g := fz[iz:]
	a, b, c, d := vxm[iz:], vxp[iz:], vym[iz:], vyp[iz:]
	for len(w) >= 9 && len(g) >= 8 && len(a) >= 8 && len(b) >= 8 && len(c) >= 8 && len(d) >= 8 {
		s0 := a[0] + b[0] + c[0] + d[0] + w[0] + w[2]
		w[1] = (s0 - h2*g[0]) / 6
		s1 := a[2] + b[2] + c[2] + d[2] + w[2] + w[4]
		w[3] = (s1 - h2*g[2]) / 6
		s2 := a[4] + b[4] + c[4] + d[4] + w[4] + w[6]
		w[5] = (s2 - h2*g[4]) / 6
		s3 := a[6] + b[6] + c[6] + d[6] + w[6] + w[8]
		w[7] = (s3 - h2*g[6]) / 6
		w, g = w[8:], g[8:]
		a, b, c, d = a[8:], b[8:], c[8:], d[8:]
	}
	// Interior points remain while the point index is at most n-2,
	// i.e. len(w) >= 3; the companion length tests mirror the window
	// advances and are always true together with it.
	for len(w) >= 3 && len(g) >= 2 && len(a) >= 2 && len(b) >= 2 && len(c) >= 2 && len(d) >= 2 {
		sum := a[0] + b[0] + c[0] + d[0] + w[0] + w[2]
		w[1] = (sum - h2*g[0]) / 6
		w, g = w[2:], g[2:]
		a, b, c, d = a[2:], b[2:], c[2:], d[2:]
	}
	// len(w)==2 iff the sweep's colour lands on the last point n-1,
	// whose +z neighbour wraps to 0.
	if len(w) == 2 {
		sum := vxm[n-1] + vxp[n-1] + vym[n-1] + vyp[n-1] + vz[n-2] + vz[0]
		vz[n-1] = (sum - h2*fz[n-1]) / 6
	}
}

// computeResidual fills lev.r = f − ∇²v with the same peel-and-unroll
// structure as smooth; the residual only reads v, so the stride-1
// pencil kernel is trivially order-independent.
func computeResidual(lev *level) {
	n := lev.n
	if n < 4 {
		residualWrap(lev)
		return
	}
	nn := n * n
	for ix := 0; ix < n; ix++ {
		xm, xp := ix-1, ix+1
		if ix == 0 {
			xm = n - 1
		}
		if ix == n-1 {
			xp = 0
		}
		residualPlane(lev.v, lev.f, lev.r, n, lev.h2, ix*nn, xm*nn, xp*nn)
	}
}

// residualPlane computes the residual of one x-plane, peeling the y
// wrap into per-row neighbour offsets.
func residualPlane(v, f, r []float64, n int, h2 float64, x0, xm, xp int) {
	for iy := 0; iy < n; iy++ {
		ym, yp := iy-1, iy+1
		if iy == 0 {
			ym = n - 1
		}
		if iy == n-1 {
			yp = 0
		}
		base := x0 + iy*n
		residualRow(r[base:base+n], f[base:base+n], v[base:base+n],
			v[xm+iy*n:xm+iy*n+n], v[xp+iy*n:xp+iy*n+n],
			v[x0+ym*n:x0+ym*n+n], v[x0+yp*n:x0+yp*n+n], h2)
	}
}

// residualRow computes r = f − ∇²v over one z-pencil: peeled z wrap at
// both ends, branch-free stride-1 interior unrolled 4-wide.
func residualRow(rz, fz, vz, vxm, vxp, vym, vyp []float64, h2 float64) {
	n := len(rz)
	if n < 4 || len(fz) < n || len(vz) < n || len(vxm) < n || len(vxp) < n || len(vym) < n || len(vyp) < n {
		return
	}
	fz, vz = fz[:n], vz[:n]
	vxm, vxp = vxm[:n], vxp[:n]
	vym, vyp = vym[:n], vyp[:n]
	lap := (vxm[0] + vxp[0] + vym[0] + vyp[0] + vz[n-1] + vz[1] - 6*vz[0]) / h2
	rz[0] = fz[0] - lap
	// Advancing windows as in smoothRow: w[0]=v[z-1], w[1]=v[z],
	// w[2]=v[z+1]; the rest anchored on the point, stride-1, 8-/4-wide.
	w := vz
	g, o := fz[1:], rz[1:]
	a, b, c, d := vxm[1:], vxp[1:], vym[1:], vyp[1:]
	for len(w) >= 10 && len(g) >= 8 && len(o) >= 8 && len(a) >= 8 && len(b) >= 8 && len(c) >= 8 && len(d) >= 8 {
		l0 := (a[0] + b[0] + c[0] + d[0] + w[0] + w[2] - 6*w[1]) / h2
		o[0] = g[0] - l0
		l1 := (a[1] + b[1] + c[1] + d[1] + w[1] + w[3] - 6*w[2]) / h2
		o[1] = g[1] - l1
		l2 := (a[2] + b[2] + c[2] + d[2] + w[2] + w[4] - 6*w[3]) / h2
		o[2] = g[2] - l2
		l3 := (a[3] + b[3] + c[3] + d[3] + w[3] + w[5] - 6*w[4]) / h2
		o[3] = g[3] - l3
		l4 := (a[4] + b[4] + c[4] + d[4] + w[4] + w[6] - 6*w[5]) / h2
		o[4] = g[4] - l4
		l5 := (a[5] + b[5] + c[5] + d[5] + w[5] + w[7] - 6*w[6]) / h2
		o[5] = g[5] - l5
		l6 := (a[6] + b[6] + c[6] + d[6] + w[6] + w[8] - 6*w[7]) / h2
		o[6] = g[6] - l6
		l7 := (a[7] + b[7] + c[7] + d[7] + w[7] + w[9] - 6*w[8]) / h2
		o[7] = g[7] - l7
		w, g, o = w[8:], g[8:], o[8:]
		a, b, c, d = a[8:], b[8:], c[8:], d[8:]
	}
	for len(w) >= 6 && len(g) >= 4 && len(o) >= 4 && len(a) >= 4 && len(b) >= 4 && len(c) >= 4 && len(d) >= 4 {
		l0 := (a[0] + b[0] + c[0] + d[0] + w[0] + w[2] - 6*w[1]) / h2
		o[0] = g[0] - l0
		l1 := (a[1] + b[1] + c[1] + d[1] + w[1] + w[3] - 6*w[2]) / h2
		o[1] = g[1] - l1
		l2 := (a[2] + b[2] + c[2] + d[2] + w[2] + w[4] - 6*w[3]) / h2
		o[2] = g[2] - l2
		l3 := (a[3] + b[3] + c[3] + d[3] + w[3] + w[5] - 6*w[4]) / h2
		o[3] = g[3] - l3
		w, g, o = w[4:], g[4:], o[4:]
		a, b, c, d = a[4:], b[4:], c[4:], d[4:]
	}
	for len(w) >= 3 && len(g) >= 1 && len(o) >= 1 && len(a) >= 1 && len(b) >= 1 && len(c) >= 1 && len(d) >= 1 {
		l := (a[0] + b[0] + c[0] + d[0] + w[0] + w[2] - 6*w[1]) / h2
		o[0] = g[0] - l
		w, g, o = w[1:], g[1:], o[1:]
		a, b, c, d = a[1:], b[1:], c[1:], d[1:]
	}
	lap = (vxm[n-1] + vxp[n-1] + vym[n-1] + vyp[n-1] + vz[n-2] + vz[0] - 6*vz[n-1]) / h2
	rz[n-1] = fz[n-1] - lap
}

// restrict applies 3-D full weighting from the fine grid (2nc per side)
// to the coarse grid (nc per side) in three separable passes: z into
// half (nf·nf·nc), y into quarter (nf·nc·nc), x into coarse.
func restrict(fine, coarse, half, quarter []float64, nc int) {
	nf := 2 * nc
	for row := 0; row < nf*nf; row++ {
		restrictLine(half[row*nc:(row+1)*nc], fine[row*nf:(row+1)*nf])
	}
	for ix := 0; ix < nf; ix++ {
		restrictSlabs(quarter[ix*nc*nc:(ix+1)*nc*nc], half[ix*nf*nc:(ix+1)*nf*nc], nc, nc)
	}
	restrictSlabs(coarse, quarter, nc, nc*nc)
}

// restrictLine filters one periodic line: dst[c] = (src[2c−1] +
// 2·src[2c] + src[2c+1])/4 with len(src) = 2·len(dst); the c = 0 wrap
// is peeled.
func restrictLine(dst, src []float64) {
	if len(dst) < 2 || len(src) < 4 || len(src) != 2*len(dst) {
		return
	}
	dst[0] = (src[len(src)-1] + 2*src[0] + src[1]) * 0.25
	// w[0] = src[2c−1], w[1] = src[2c], w[2] = src[2c+1] for d[0] = dst[c].
	w, d := src[1:], dst[1:]
	for len(w) >= 3 && len(d) >= 1 {
		d[0] = (w[0] + 2*w[1] + w[2]) * 0.25
		w, d = w[2:], d[1:]
	}
}

// restrictSlabs filters along a strided periodic axis: src holds 2nc
// slabs of m contiguous values and dst nc, with dst slab c = (src slab
// 2c−1 + 2·slab 2c + slab 2c+1)/4; slab 0 wraps to slab 2nc−1.
func restrictSlabs(dst, src []float64, nc, m int) {
	for c := 0; c < nc; c++ {
		lo := 2*c - 1
		if c == 0 {
			lo = 2*nc - 1
		}
		weigh121(dst[c*m:(c+1)*m], src[lo*m:(lo+1)*m], src[2*c*m:(2*c+1)*m], src[(2*c+1)*m:(2*c+2)*m])
	}
}

// weigh121 sets d = (a + 2b + c)/4 elementwise.
func weigh121(d, a, b, c []float64) {
	if len(a) < len(d) || len(b) < len(d) || len(c) < len(d) {
		return
	}
	a, b, c = a[:len(d)], b[:len(d)], c[:len(d)]
	for i := range d {
		d[i] = (a[i] + 2*b[i] + c[i]) * 0.25
	}
}

// prolong adds the trilinear interpolation of the coarse correction (nc
// per side) onto the fine grid (2nc per side) in three separable
// passes: x into quarter (nf·nc·nc), y into half (nf·nf·nc), and z added
// onto fine.
func prolong(coarse, fine, half, quarter []float64, nc int) {
	nf := 2 * nc
	prolongSlabs(quarter, coarse, nc, nc*nc)
	for ix := 0; ix < nf; ix++ {
		prolongSlabs(half[ix*nf*nc:(ix+1)*nf*nc], quarter[ix*nc*nc:(ix+1)*nc*nc], nc, nc)
	}
	for row := 0; row < nf*nf; row++ {
		prolongLine(fine[row*nf:(row+1)*nf], half[row*nc:(row+1)*nc])
	}
}

// prolongSlabs interpolates along a strided periodic axis: src holds nc
// slabs of m contiguous values and dst 2nc, with dst slab 2c = src slab
// c and dst slab 2c+1 = (src slab c + slab c+1)/2; the last slab's
// right neighbour wraps to slab 0.
func prolongSlabs(dst, src []float64, nc, m int) {
	for c := 0; c < nc; c++ {
		hi := c + 1
		if hi == nc {
			hi = 0
		}
		lo := src[c*m : (c+1)*m]
		copy(dst[2*c*m:(2*c+1)*m], lo)
		mean2(dst[(2*c+1)*m:(2*c+2)*m], lo, src[hi*m:(hi+1)*m])
	}
}

// mean2 sets d = (a + b)/2 elementwise.
func mean2(d, a, b []float64) {
	if len(a) < len(d) || len(b) < len(d) {
		return
	}
	a, b = a[:len(d)], b[:len(d)]
	for i := range d {
		d[i] = (a[i] + b[i]) * 0.5
	}
}

// prolongLine adds the linear interpolation of the periodic coarse line
// src onto the fine line dst (len 2·len(src)): dst[2c] += src[c],
// dst[2c+1] += (src[c] + src[c+1])/2, the last point's wrap peeled.
func prolongLine(dst, src []float64) {
	if len(src) < 1 || len(dst) != 2*len(src) {
		return
	}
	d, w := dst, src
	for len(w) >= 2 && len(d) >= 2 {
		d[0] += w[0]
		d[1] += (w[0] + w[1]) * 0.5
		d, w = d[2:], w[1:]
	}
	if len(w) == 1 && len(d) >= 2 {
		d[0] += w[0]
		d[1] += (w[0] + src[0]) * 0.5
	}
}
