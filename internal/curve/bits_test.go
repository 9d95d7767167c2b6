package curve

import (
	"testing"
	"testing/quick"
)

// referenceInterleave is the obviously-correct bit loop used as oracle.
func referenceInterleave(p []uint32, order, dims int) uint64 {
	var key uint64
	for j := 0; j < order; j++ {
		for i := 0; i < dims; i++ {
			key |= uint64((p[i]>>uint(j))&1) << uint(j*dims+i)
		}
	}
	return key
}

func TestInterleave2Known(t *testing.T) {
	// x=0b11, y=0b01 -> bits: y1 x1 y0 x0 = 0 1 1 1 = 0b0111.
	if got := Interleave([]uint32{3, 1}, 2, 2); got != 0b0111 {
		t.Fatalf("got %b", got)
	}
	// x=0, y=3 -> 0b1010.
	if got := Interleave([]uint32{0, 3}, 2, 2); got != 0b1010 {
		t.Fatalf("got %b", got)
	}
}

func TestInterleave3Known(t *testing.T) {
	// x=1,y=0,z=0 -> bit0. z=1 -> bit2.
	if got := Interleave([]uint32{1, 0, 0}, 1, 3); got != 1 {
		t.Fatalf("got %d", got)
	}
	if got := Interleave([]uint32{0, 0, 1}, 1, 3); got != 4 {
		t.Fatalf("got %d", got)
	}
}

func TestInterleaveMatchesReference(t *testing.T) {
	f := func(x, y uint32) bool {
		got := Interleave([]uint32{x, y}, 32, 2)
		return got == referenceInterleave([]uint32{x, y}, 32, 2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(x, y, z uint32) bool {
		p := []uint32{x & 0x1fffff, y & 0x1fffff, z & 0x1fffff}
		return Interleave(p, 21, 3) == referenceInterleave(p, 21, 3)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	for _, dims := range []int{2, 3, 4, 5} {
		order := 62 / dims
		if order > 32 {
			order = 32
		}
		mask := uint32(1)<<uint(order) - 1
		if order >= 32 {
			mask = ^uint32(0)
		}
		f := func(vals [5]uint32) bool {
			p := make([]uint32, dims)
			for i := range p {
				p[i] = vals[i] & mask
			}
			key := Interleave(p, order, dims)
			out := make([]uint32, dims)
			Deinterleave(key, order, dims, out)
			for i := range p {
				if out[i] != p[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("dims %d: %v", dims, err)
		}
	}
}

func TestGrayRoundTrip(t *testing.T) {
	if Gray(0) != 0 || Gray(1) != 1 || Gray(2) != 3 || Gray(3) != 2 {
		t.Fatal("gray code table wrong")
	}
	f := func(v uint64) bool { return GrayInverse(Gray(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrayAdjacency(t *testing.T) {
	// Consecutive Gray codes differ in exactly one bit.
	for v := uint64(0); v < 4096; v++ {
		x := Gray(v) ^ Gray(v+1)
		if x == 0 || x&(x-1) != 0 {
			t.Fatalf("gray(%d) and gray(%d) differ in %b", v, v+1, x)
		}
	}
}

func TestPowerOfTwoOrder(t *testing.T) {
	for _, tc := range []struct {
		side uint32
		k    int
		ok   bool
	}{
		{1, 0, true}, {2, 1, true}, {1024, 10, true}, {1 << 20, 20, true},
		{0, 0, false}, {3, 0, false}, {12, 0, false},
	} {
		k, err := PowerOfTwoOrder(tc.side)
		if tc.ok && (err != nil || k != tc.k) {
			t.Errorf("PowerOfTwoOrder(%d) = %d, %v", tc.side, k, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("PowerOfTwoOrder(%d) accepted", tc.side)
		}
	}
}

func TestIsqrtExact(t *testing.T) {
	for x := uint64(0); x < 1<<16; x++ {
		r := Isqrt(x)
		if r*r > x || (r+1)*(r+1) <= x {
			t.Fatalf("Isqrt(%d) = %d", x, r)
		}
	}
	// Around perfect squares, where a float seed rounds across the answer:
	// every k below 2^12, then strided k up to 2^32-1.
	var edges []uint64
	for k := uint64(1); k <= 0xFFFFFFFF; k += 1 + k/4096 + k/1000003*977 {
		edges = append(edges, k*k-1, k*k, k*k+1)
	}
	k := uint64(0xFFFFFFFF)
	edges = append(edges, k*k-1, k*k, k*k+1, 1<<53-1, 1<<53, 1<<53+1)
	for _, x := range append(edges, 1<<62, 1<<62-1, 1<<62+1, (1<<31)*(1<<31), (1<<31-1)*(1<<31-1)+1, ^uint64(0)) {
		r := Isqrt(x)
		if r > 0xFFFFFFFF || r*r > x {
			t.Fatalf("Isqrt(%d) = %d: square exceeds x", x, r)
		}
		if r+1 <= 0xFFFFFFFF && (r+1)*(r+1) <= x {
			t.Fatalf("Isqrt(%d) = %d: not maximal", x, r)
		}
	}
}

func TestIcbrtExact(t *testing.T) {
	for x := uint64(0); x < 1<<16; x++ {
		r := Icbrt(x)
		if r*r*r > x || (r+1)*(r+1)*(r+1) <= x {
			t.Fatalf("Icbrt(%d) = %d", x, r)
		}
	}
	for _, x := range []uint64{1 << 62, 1<<62 - 1, 1<<62 + 1, 1 << 63, ^uint64(0), 2642245 * 2642245 * 2642245} {
		r := Icbrt(x)
		if r*r*r > x {
			t.Fatalf("Icbrt(%d) = %d: cube exceeds x", x, r)
		}
		if r+1 <= 2642245 && (r+1)*(r+1)*(r+1) <= x {
			t.Fatalf("Icbrt(%d) = %d: not maximal", x, r)
		}
	}
}
