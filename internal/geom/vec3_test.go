package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Fatal("Add")
	}
	if b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Fatal("Sub")
	}
	if a.Scale(2) != (Vec3{2, 4, 6}) {
		t.Fatal("Scale")
	}
	if a.Dot(b) != 32 {
		t.Fatal("Dot")
	}
	if math.Abs(Vec3{3, 4, 0}.Norm()-5) > 1e-14 {
		t.Fatal("Norm")
	}
}

func TestWrap(t *testing.T) {
	c := Cell{L: 10}
	p := c.Wrap(Vec3{-1, 11, 25})
	want := Vec3{9, 1, 5}
	if p.Sub(want).Norm() > 1e-12 {
		t.Fatalf("Wrap got %v want %v", p, want)
	}
}

func TestMinImage(t *testing.T) {
	c := Cell{L: 10}
	d := c.MinImage(Vec3{1, 1, 1}, Vec3{9, 1, 1})
	if math.Abs(d.X+2) > 1e-12 {
		t.Fatalf("MinImage X = %g, want -2", d.X)
	}
	if c.Distance(Vec3{0, 0, 0}, Vec3{5, 5, 5}) > math.Sqrt(75)+1e-12 {
		t.Fatal("max distance exceeded")
	}
}

// Property: minimum-image displacement components always lie in
// [-L/2, L/2], and distance is symmetric.
func TestMinImageProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Cell{L: 1 + rng.Float64()*50}
		a := Vec3{rng.NormFloat64() * 100, rng.NormFloat64() * 100, rng.NormFloat64() * 100}
		b := Vec3{rng.NormFloat64() * 100, rng.NormFloat64() * 100, rng.NormFloat64() * 100}
		d := c.MinImage(a, b)
		half := c.L/2 + 1e-9
		if math.Abs(d.X) > half || math.Abs(d.Y) > half || math.Abs(d.Z) > half {
			return false
		}
		return math.Abs(c.Distance(a, b)-c.Distance(b, a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: wrapping is idempotent and preserves minimum-image distances.
func TestWrapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Cell{L: 1 + rng.Float64()*20}
		p := Vec3{rng.NormFloat64() * 40, rng.NormFloat64() * 40, rng.NormFloat64() * 40}
		q := Vec3{rng.NormFloat64() * 40, rng.NormFloat64() * 40, rng.NormFloat64() * 40}
		w := c.Wrap(p)
		if w.X < 0 || w.X >= c.L || w.Y < 0 || w.Y >= c.L || w.Z < 0 || w.Z >= c.L {
			return false
		}
		if c.Wrap(w).Sub(w).Norm() > 1e-12 {
			return false
		}
		return math.Abs(c.Distance(p, q)-c.Distance(c.Wrap(p), c.Wrap(q))) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVolume(t *testing.T) {
	if (Cell{L: 3}).Volume() != 27 {
		t.Fatal("Volume")
	}
}
