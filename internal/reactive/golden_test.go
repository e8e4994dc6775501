package reactive

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/md"
	"ldcdft/internal/units"
)

// trajectoryHash integrates a LiAl-in-water system the way RunProduction
// sets it up (600 K, Berendsen τ = 24 fs, default time step) and returns
// FNV-64a over math.Float64bits of the potential energy and every force
// component of every step. It also counts the Verlet-list rebuilds the
// field's rule implies (any atom further than half the 1.5 Bohr skin from
// where it stood at the last build), tracked here from the positions alone
// so the count does not depend on the field's internals.
func trajectoryHash(t *testing.T, pairs int, seed int64, steps int) (hash uint64, rebuilds, cellsPerAxis int) {
	t.Helper()
	sys, err := atoms.BuildLiAlInWater(atoms.LiAlParticleSpec{PairCount: pairs}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	sys.InitVelocities(600, rand.New(rand.NewSource(seed+17)))
	field := NewField()
	in := md.NewIntegrator(field, 0)
	in.Thermostat = &md.Berendsen{TargetK: 600, TauAU: 24 * units.AtomicTimePerFs}

	const skin = 1.5
	ref := make([]geom.Vec3, len(sys.Atoms))
	mark := func() {
		for i := range sys.Atoms {
			ref[i] = sys.Atoms[i].Position
		}
	}
	mark()
	rebuilds = 1
	h := fnv.New64a()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for s := 0; s < steps; s++ {
		if err := in.Step(sys); err != nil {
			t.Fatal(err)
		}
		for i := range sys.Atoms {
			if sys.Cell.MinImage(ref[i], sys.Atoms[i].Position).Norm2() > (skin/2)*(skin/2) {
				rebuilds++
				mark()
				break
			}
		}
		put(in.PotentialEnergy())
		for _, f := range in.Forces() {
			put(f.X)
			put(f.Y)
			put(f.Z)
		}
	}
	return h.Sum64(), rebuilds, int(sys.Cell.L / (field.P.Cutoff + skin))
}

// TestGoldenTrajectory pins the reactive engine bit for bit: the hashes
// below were recorded on the commit before the pair-ranged CSR list
// (d9f8290) and every later neighbour-list change must reproduce them.
// The trajectory is chaotic — the same pairs summed in another order move
// the energies in the first decimal after 2 000 steps — so a hash either
// matches or the numerical contract (DESIGN.md, "Reactive engine") broke.
func TestGoldenTrajectory(t *testing.T) {
	cases := []struct {
		pairs    int
		seed     int64
		steps    int
		cellPath bool
		want     uint64
	}{
		{30, 1, 400, true, 0x3e0be777449f03e1},
		{30, 2, 400, true, 0x511aebde4e430938},
		{2, 1, 120, false, 0xa12ea782e7573d43},
		{2, 2, 120, false, 0x88fea7e90d9bfd79},
	}
	for _, c := range cases {
		if c.pairs > 2 && testing.Short() {
			continue
		}
		got, rebuilds, nc := trajectoryHash(t, c.pairs, c.seed, c.steps)
		t.Logf("pairs %d seed %d: %d steps, %d list builds, %d cells per axis, hash %#016x",
			c.pairs, c.seed, c.steps, rebuilds, nc, got)
		if (nc > 3) != c.cellPath {
			t.Errorf("pairs %d: %d cells per axis, want cell path = %v", c.pairs, nc, c.cellPath)
		}
		if c.cellPath && rebuilds < 10 {
			t.Errorf("pairs %d seed %d: only %d list builds, want ≥ 10", c.pairs, c.seed, rebuilds)
		}
		if got != c.want {
			t.Errorf("pairs %d seed %d: trajectory hash %#016x, want %#016x", c.pairs, c.seed, got, c.want)
		}
	}
}
