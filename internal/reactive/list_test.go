package reactive

import (
	"math/rand"
	"sync"
	"testing"

	"ldcdft/internal/atoms"
	"ldcdft/internal/geom"
	"ldcdft/internal/md"
	"ldcdft/internal/units"
)

func lialWater(t testing.TB, pairs int, seed int64) *atoms.System {
	t.Helper()
	sys, err := atoms.BuildLiAlInWater(atoms.LiAlParticleSpec{PairCount: pairs}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// checkList compares the field's list with brute force over all ordered
// pairs of the frame Compute last saw: every pair inside its reach must be
// listed, and every listed d, r must be MinImage / Norm of the current
// positions, bit for bit. On a build frame the list is pinned from both
// sides: it holds exactly the pairs inside reach + skin.
func checkList(t *testing.T, f *Field, sys *atoms.System, frame int, built bool) {
	t.Helper()
	_, reach := f.pairTables()
	n := len(sys.Atoms)
	if len(f.start) != n+1 || int(f.start[n]) != len(f.j) || len(f.d) != len(f.j) || len(f.r) != len(f.j) {
		t.Fatalf("frame %d: CSR arrays out of step: %d rows, start[n] %d, %d/%d/%d entries",
			frame, len(f.start)-1, f.start[n], len(f.j), len(f.d), len(f.r))
	}
	listed := make([]bool, n)
	for i := range sys.Atoms {
		row := f.j[f.start[i]:f.start[i+1]]
		for k, j := range row {
			if listed[j] || int(j) == i {
				t.Fatalf("frame %d: row %d lists %d twice or itself", frame, i, j)
			}
			listed[j] = true
			d := sys.Cell.MinImage(sys.Atoms[i].Position, sys.Atoms[j].Position)
			if e := int(f.start[i]) + k; f.d[e] != d || f.r[e] != d.Norm() {
				t.Fatalf("frame %d: entry (%d,%d) holds d=%v r=%v, positions give d=%v r=%v",
					frame, i, j, f.d[e], f.r[e], d, d.Norm())
			}
			if rc := reach[f.kind[i]][f.kind[j]]; built && d.Norm() > rc+skin+1e-9 {
				t.Fatalf("frame %d: built list holds (%d,%d) at r=%g, outside reach %g + skin", frame, i, j, d.Norm(), rc)
			}
		}
		for j := range sys.Atoms {
			if j == i || listed[j] {
				continue
			}
			r := sys.Cell.MinImage(sys.Atoms[i].Position, sys.Atoms[j].Position).Norm()
			rc := reach[kindOf(sys.Atoms[i].Species)][kindOf(sys.Atoms[j].Species)]
			if built {
				rc += skin - 1e-9
			}
			if r < rc {
				t.Fatalf("frame %d (built %v): pair (%d,%d) %s–%s at r=%g is inside %g but not listed",
					frame, built, i, j, sys.Atoms[i].Species.Symbol, sys.Atoms[j].Species.Symbol, r, rc)
			}
		}
		for _, j := range row {
			listed[j] = false
		}
	}
}

// TestListHoldsEveryInteractingPair checks the pair-ranged filter at
// every frame of a hot trajectory — so in particular at each build frame
// and at the last frame before the next build, where atoms have used up
// the most of the skin.
func TestListHoldsEveryInteractingPair(t *testing.T) {
	cases := []struct{ pairs, steps, builds int }{{2, 40, 3}, {30, 60, 4}}
	for _, c := range cases {
		if c.pairs > 2 && testing.Short() {
			continue
		}
		sys := lialWater(t, c.pairs, 3)
		sys.InitVelocities(1500, rand.New(rand.NewSource(3)))
		f := NewField()
		in := md.NewIntegrator(f, 0)
		in.Thermostat = &md.Berendsen{TargetK: 1500, TauAU: 24 * units.AtomicTimePerFs}
		builds, maxMoved := 0, 0.0
		for s := 0; s <= c.steps; s++ {
			if err := in.Step(sys); err != nil {
				t.Fatal(err)
			}
			moved := 0.0
			for i := range sys.Atoms {
				moved = max(moved, sys.Cell.MinImage(f.pos0[i], sys.Atoms[i].Position).Norm())
			}
			if moved == 0 {
				builds++
				if builds == 1 {
					t.Logf("pairs %d: %d atoms, %d entries listed (%d with j > i)", c.pairs, len(sys.Atoms), len(f.j), len(f.j)/2)
				}
			}
			maxMoved = max(maxMoved, moved)
			checkList(t, f, sys, s, moved == 0)
		}
		t.Logf("pairs %d: %d frames checked, %d builds, largest displacement since a build %.3f of the %.3f allowed",
			c.pairs, c.steps+1, builds, maxMoved, skin/2)
		if builds < c.builds || maxMoved < 0.8*skin/2 {
			t.Errorf("pairs %d: run too tame to test the skin: %d builds, max displacement %.3f", c.pairs, builds, maxMoved)
		}
	}
}

// TestEditedParamsTakeEffect: P is a plain exported field, so a warm
// Field whose P is edited must answer like a new Field built with the
// edited P — here an O–H coordination range pushed past the O–H Morse
// cutoff, which lengthens that pair's reach and so must rebuild the list.
func TestEditedParamsTakeEffect(t *testing.T) {
	sys := lialWater(t, 2, 4)
	warm := NewField()
	if _, _, err := warm.Compute(sys); err != nil {
		t.Fatal(err)
	}
	entries := len(warm.j)
	warm.P.OHCoordR2 = 3.0 * units.BohrPerAngstrom
	cold := NewField()
	cold.P.OHCoordR2 = warm.P.OHCoordR2
	eWarm, fWarm, _ := warm.Compute(sys)
	eCold, fCold, _ := cold.Compute(sys)
	if len(warm.j) <= entries {
		t.Fatalf("longer O–H reach did not grow the list: %d → %d entries", entries, len(warm.j))
	}
	if eWarm != eCold {
		t.Fatalf("edited field E = %.17g, new field E = %.17g", eWarm, eCold)
	}
	for i := range fWarm {
		if fWarm[i] != fCold[i] {
			t.Fatalf("force on atom %d: edited field %v, new field %v", i, fWarm[i], fCold[i])
		}
	}
}

// TestComputeAllocations pins the scratch reuse: a steady-state Compute
// allocates the forces it returns and nothing else; one that rebuilds the
// list adds only the traversal's own three arrays, however many pairs it
// admits.
func TestComputeAllocations(t *testing.T) {
	for _, pairs := range []int{2, 30} { // all-pairs fallback, cell path
		sys := lialWater(t, pairs, 5)
		f := NewField()
		compute := func() {
			if _, _, err := f.Compute(sys); err != nil {
				t.Fatal(err)
			}
		}
		compute()
		if a := testing.AllocsPerRun(10, compute); a > 1 {
			t.Errorf("pairs %d: steady-state Compute allocates %.0f times, want ≤ 1", pairs, a)
		}
		// Shuttling one atom by more than half the skin forces a build
		// on every call.
		home := sys.Atoms[0].Position
		away := false
		rebuild := func() {
			away = !away
			sys.Atoms[0].Position = home
			if away {
				sys.Atoms[0].Position = home.Add(geom.Vec3{X: skin})
			}
			compute()
		}
		rebuild()
		rebuild()
		if a := testing.AllocsPerRun(10, rebuild); a > 4 {
			t.Errorf("pairs %d: a rebuilding Compute allocates %.0f times, want ≤ 4", pairs, a)
		}
	}
}

// TestConcurrentFieldsAgree runs two trajectories of one system on two
// Fields at once, as two serve slots do; under -race this is the check
// that a Field's scratch is its own.
func TestConcurrentFieldsAgree(t *testing.T) {
	base := lialWater(t, 2, 6)
	var res [2]*ProductionResult
	var errs [2]error
	var wg sync.WaitGroup
	for g := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[g], errs[g] = RunProduction(base.Clone(), ProductionConfig{TempK: 600, Steps: 12, SampleEvery: 4, Seed: 6})
		}()
	}
	wg.Wait()
	for g := range res {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
	}
	for s, e := range res[0].EnergiesHa {
		if e != res[1].EnergiesHa[s] {
			t.Fatalf("step %d: energies %.17g and %.17g", s+1, e, res[1].EnergiesHa[s])
		}
	}
	if res[0].Final != res[1].Final {
		t.Fatalf("final censuses %+v and %+v", res[0].Final, res[1].Final)
	}
}

// censusFromList is TakeCensus as it was written on a materialised
// neighbour list — the reference the traversal-fed census must equal.
func censusFromList(sys *atoms.System) Census {
	var c Census
	nl := atoms.BuildNeighborList(sys, cutMM+0.1)
	n := len(sys.Atoms)
	hBondO := make([]int, n)
	hBondH := make([]int, n)
	hBondM := make([]int, n)
	hPartner := make([]int, n)
	oBondH := make([]int, n)
	mBondM := make([]int, n)
	for i := range hPartner {
		hPartner[i] = -1
	}
	for i := range sys.Atoms {
		si := sys.Atoms[i].Species
		for _, nb := range nl.Lists[i] {
			sj := sys.Atoms[nb.J].Species
			switch {
			case si == atoms.Hydrogen && sj == atoms.Hydrogen && nb.R < cutHH:
				hBondH[i]++
				hPartner[i] = nb.J
			case si == atoms.Hydrogen && sj == atoms.Oxygen && nb.R < cutOH:
				hBondO[i]++
			case si == atoms.Oxygen && sj == atoms.Hydrogen && nb.R < cutOH:
				oBondH[i]++
			case si == atoms.Hydrogen && metal(kindOf(sj)) && nb.R < cutMH:
				hBondM[i]++
			case metal(kindOf(si)) && metal(kindOf(sj)) && nb.R < cutMM:
				mBondM[i]++
			}
		}
	}
	countedH2 := make([]bool, n)
	for i := range sys.Atoms {
		switch sp := sys.Atoms[i].Species; sp {
		case atoms.Hydrogen:
			switch {
			case hBondH[i] == 1 && hBondO[i] == 0 && !countedH2[i]:
				j := hPartner[i]
				if j >= 0 && hPartner[j] == i && hBondO[j] == 0 && hBondH[j] == 1 {
					c.H2++
					countedH2[i] = true
					countedH2[j] = true
				}
			case hBondO[i] == 0 && hBondH[i] == 0 && hBondM[i] > 0:
				c.MetalH++
			case hBondO[i] == 0 && hBondH[i] == 0 && hBondM[i] == 0:
				c.FreeH++
			}
		case atoms.Oxygen:
			switch oBondH[i] {
			case 1:
				c.Hydroxide++
			case 2:
				c.Water++
			case 3:
				c.Hydronium++
			}
		case atoms.Lithium, atoms.Aluminum:
			if sp == atoms.Lithium && mBondM[i] == 0 {
				c.DissolvedLi++
			}
			if mBondM[i] > 0 && mBondM[i] < surfaceCoordination {
				c.SurfaceMetal++
			}
		}
	}
	return c
}
