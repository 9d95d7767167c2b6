package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/onioncurve/onion/internal/baseline"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
)

// firstDifference returns the first key at which a and b, two curves
// over one universe, map to different cells, or false when they are the
// same bijection.
func firstDifference(a, b curve.Curve) (uint64, bool) {
	u := a.Universe()
	pa, pb := make(geom.Point, u.Dims()), make(geom.Point, u.Dims())
	for k := range u.Size() {
		if !slices.Equal(a.Coords(k, pa), b.Coords(k, pb)) {
			return k, true
		}
	}
	return 0, false
}

// TestIdentitySeparatesCurves: two curves' identities are equal exactly
// when they are the same bijection. Equal bijections of one name always
// have equal identities (an identity is a function of the name and the
// cells); the test checks the converse, that no two different bijections
// share one, over every constructor the package facade offers and over
// 2 000 seeded Onion3D segment orders at sides 16 and 64.
func TestIdentitySeparatesCurves(t *testing.T) {
	must := func(c curve.Curve, err error) curve.Curve {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Per universe, every constructor that fills it.
	universes := map[string][]curve.Curve{}
	add := func(cs ...curve.Curve) {
		for _, c := range cs {
			universes[c.Universe().String()] = append(universes[c.Universe().String()], c)
		}
	}
	add(must(NewOnion2D(16)), must(NewOnion3D(16)),
		must(NewOnion3DWithSegmentOrder(16, [10]int{1, 2, 3, 4, 7, 5, 6, 8, 9, 10})))
	for _, dims := range []int{2, 3} {
		add(must(NewOnionND(dims, 16)), must(NewLayerLex(dims, 16)),
			must(baseline.NewHilbert(dims, 16)), must(baseline.NewMorton(dims, 16)),
			must(baseline.NewGray(dims, 16)), must(baseline.NewRowMajor(dims, 16)),
			must(baseline.NewColumnMajor(dims, 16)), must(baseline.NewSnake(dims, 16)),
			must(baseline.NewPeano(dims, 9)))
	}
	for u, cs := range universes {
		for i, a := range cs {
			ida := curve.IdentityOf(a)
			if ida.Fingerprint == 0 || ida != curve.IdentityOf(a) {
				t.Fatalf("%s %s: identity %v is zero or not deterministic", u, a.Name(), ida)
			}
			for _, b := range cs[i+1:] {
				k, differ := firstDifference(a, b)
				if same := ida == curve.IdentityOf(b); same == differ {
					t.Errorf("%s: %s and %s: identities equal %v, bijections differ %v (first at key %d)",
						u, a.Name(), b.Name(), same, differ, k)
				}
			}
		}
	}

	// The measured pair: one name, one universe, but different bijections
	// from key 722 on.
	def := must(NewOnion3D(16))
	swapped := must(NewOnion3DWithSegmentOrder(16, [10]int{1, 2, 3, 4, 7, 5, 6, 8, 9, 10}))
	if k, differ := firstDifference(def, swapped); !differ || k != 722 {
		t.Fatalf("the pinned pair first differs at key %d (differ %v), want 722", k, differ)
	}
	if curve.IdentityOf(def) == curve.IdentityOf(swapped) {
		t.Fatal("the pinned pair shares an identity")
	}

	for _, side := range []uint32{16, 64} {
		rng := rand.New(rand.NewPCG(uint64(side), 1))
		seen := map[curve.Identity]*Onion3D{}
		for range 2000 {
			var perm [10]int
			for i, g := range rng.Perm(10) {
				perm[i] = g + 1
			}
			o, err := NewOnion3DWithSegmentOrder(side, perm)
			if err != nil {
				t.Fatal(err)
			}
			id := curve.IdentityOf(o)
			prev, ok := seen[id]
			if !ok {
				seen[id] = o
				continue
			}
			if prev.perm == perm {
				continue // drawn twice
			}
			if k, differ := firstDifference(prev, o); differ {
				t.Fatalf("side %d: orders %v and %v share identity %v but differ at key %d",
					side, prev.perm, perm, id, k)
			}
		}
		t.Logf("side %d: %d distinct identities", side, len(seen))
	}
}
