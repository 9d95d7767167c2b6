package curve

// Bit-interleaving (Morton) and Gray code primitives, plus exact integer
// root helpers. These are the building blocks of the Z curve, the Gray-code
// curve and the Hilbert curve key packing, and of the onion curves' exact
// ring/layer inversion. All bit routines operate on "order" bits per
// dimension and "dims" dimensions; the produced keys use order*dims low
// bits.

import (
	"math"
	"math/bits"
)

// Interleave packs the low `order` bits of each coordinate into a Morton
// key. Bit j of dimension i lands at key bit j*dims + i, so dimension 0 is
// the least significant within each bit group and higher bits of the
// coordinates are more significant in the key.
func Interleave(p []uint32, order int, dims int) uint64 {
	if dims == 2 {
		return interleave2(uint64(p[0]), uint64(p[1]))
	}
	if dims == 3 && order <= 21 {
		return interleave3(uint64(p[0]), uint64(p[1]), uint64(p[2]))
	}
	var key uint64
	for j := 0; j < order; j++ {
		for i := 0; i < dims; i++ {
			bit := uint64(p[i]>>uint(j)) & 1
			key |= bit << uint(j*dims+i)
		}
	}
	return key
}

// Deinterleave is the inverse of Interleave; it writes the coordinates into
// dst which must have length dims.
func Deinterleave(key uint64, order int, dims int, dst []uint32) {
	if dims == 2 {
		dst[0] = uint32(compact2(key))
		dst[1] = uint32(compact2(key >> 1))
		return
	}
	if dims == 3 && order <= 21 {
		dst[0] = uint32(compact3(key))
		dst[1] = uint32(compact3(key >> 1))
		dst[2] = uint32(compact3(key >> 2))
		return
	}
	for i := range dst {
		dst[i] = 0
	}
	for j := 0; j < order; j++ {
		for i := 0; i < dims; i++ {
			bit := (key >> uint(j*dims+i)) & 1
			dst[i] |= uint32(bit) << uint(j)
		}
	}
}

// interleave2 spreads the low 32 bits of x into even key bits, y into odd.
func interleave2(x, y uint64) uint64 {
	return spread2(x) | spread2(y)<<1
}

func spread2(v uint64) uint64 {
	v &= 0xffffffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

func compact2(v uint64) uint64 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff00ff00ff
	v = (v | v>>8) & 0x0000ffff0000ffff
	v = (v | v>>16) & 0x00000000ffffffff
	return v
}

// interleave3 spreads the low 21 bits of each coordinate.
func interleave3(x, y, z uint64) uint64 {
	return spread3(x) | spread3(y)<<1 | spread3(z)<<2
}

func spread3(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

func compact3(v uint64) uint64 {
	v &= 0x1249249249249249
	v = (v | v>>2) & 0x10c30c30c30c30c3
	v = (v | v>>4) & 0x100f00f00f00f00f
	v = (v | v>>8) & 0x1f0000ff0000ff
	v = (v | v>>16) & 0x1f00000000ffff
	v = (v | v>>32) & 0x1fffff
	return v
}

// Isqrt returns floor(sqrt(x)) exactly. A float64 square root seeds it —
// within one of the answer for every uint64, and one hardware instruction
// where a Newton iteration costs a chain of 64-bit divisions — and integer
// steps correct the seed to the invariant r*r <= x < (r+1)*(r+1), so no
// rounding survives into a curve inversion.
func Isqrt(x uint64) uint64 {
	r := min(uint64(math.Sqrt(float64(x))), 0xFFFFFFFF)
	for r*r > x {
		r--
	}
	// (r+1)^2 cannot overflow below 2^32-1, and floor(sqrt(x)) <= 2^32-1
	// for every uint64 x, so the guard never blocks a needed increment.
	for r+1 <= 0xFFFFFFFF && (r+1)*(r+1) <= x {
		r++
	}
	return r
}

// Icbrt returns floor(cbrt(x)), the cubic analogue of Isqrt used by the 3D
// onion curve's layer inversion.
func Icbrt(x uint64) uint64 {
	if x == 0 {
		return 0
	}
	r := uint64(1) << uint((bits.Len64(x)+2)/3) // r >= cbrt(x)
	for {
		nr := (2*r + x/(r*r)) / 3
		if nr >= r {
			break
		}
		r = nr
	}
	for r*r*r > x {
		r--
	}
	// floor(cbrt(2^64-1)) = 2642245; the guard keeps (r+1)^3 in range.
	const maxCbrt = 2642245
	for r+1 <= maxCbrt && (r+1)*(r+1)*(r+1) <= x {
		r++
	}
	return r
}

// Gray returns the binary-reflected Gray code of v.
func Gray(v uint64) uint64 { return v ^ (v >> 1) }

// GrayInverse decodes a binary-reflected Gray code.
func GrayInverse(g uint64) uint64 {
	g ^= g >> 32
	g ^= g >> 16
	g ^= g >> 8
	g ^= g >> 4
	g ^= g >> 2
	g ^= g >> 1
	return g
}
