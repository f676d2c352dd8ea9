package raster

import (
	"encoding/binary"
	"math/bits"
)

// Bitonal is an image of at most two grey levels at one bit per pixel:
// pixel i (row-major) is Levels[1] when bit i%8 of Bits[i/8] is set and
// Levels[0] otherwise. Levels[0] <= Levels[1]; an image of one level has
// both equal and every bit clear. Bits holds ⌈W·H/8⌉ bytes, and the spare
// high bits of its last byte are clear.
//
// Written emblems are bitonal (the writers are black-and-white devices),
// so the media simulator stores them this way at an eighth of a Gray's
// bytes; Pack and UnpackInto convert losslessly in both directions.
type Bitonal struct {
	W, H   int
	Levels [2]byte
	Bits   []byte
}

const (
	lanes  = 0x0101010101010101 // a one in each byte lane of a word
	gather = 0x0102040810204080 // multiplying moves bit 0 of lane i to bit 56+i
)

// spread[c] has byte lane i all ones exactly when bit i of c is set.
var spread = func() (t [256]uint64) {
	for c := range t {
		for i := 0; i < 8; i++ {
			if c>>i&1 == 1 {
				t[c] |= 0xff << (8 * i)
			}
		}
	}
	return t
}()

// Pack returns g at one bit per pixel, or false when g has a third grey
// level. The levels are the first pixel's and the first pixel's that
// differs from it; packBlocks then packs 32 pixels at a time, and the
// pixels after its last whole block one by one.
func Pack(g *Gray) (*Bitonal, bool) {
	pix := g.Pix
	n := len(pix)
	b := &Bitonal{W: g.W, H: g.H, Bits: make([]byte, (n+7)/8)}
	if n == 0 {
		return b, true
	}
	lo := pix[0]
	i := 0
	for same := uint64(lo) * lanes; i+8 <= n && binary.LittleEndian.Uint64(pix[i:]) == same; i += 8 {
	}
	for i < n && pix[i] == lo {
		i++
	}
	if i == n {
		b.Levels = [2]byte{lo, lo} // one level: every bit clear
		return b, true
	}
	hi := pix[i]
	if hi < lo {
		lo, hi = hi, lo
	}
	b.Levels = [2]byte{lo, hi}
	i = packBlocks(b.Bits, pix, lo, hi)
	if i < 0 {
		return nil, false
	}
	for ; i < n; i++ {
		switch pix[i] {
		case lo:
		case hi:
			b.Bits[i/8] |= 1 << (i % 8)
		default:
			return nil, false
		}
	}
	return b, true
}

// packBlocks packs the whole 32-pixel blocks of pix into out, four bytes a
// block, and returns the number of pixels packed, or -1 at a block holding
// a third level; lo != hi. Let k be the lowest bit of lo^hi. XOR with the
// lower level leaves each byte lane 0 or lo^hi, so bit k of the lane marks
// the higher level, and a lane holding anything else differs from that
// bit times (lo^hi)>>k. A multiply by gather>>k moves the marks of a word
// into its top byte.
func packBlocks(out, pix []byte, lo, hi byte) int {
	d := lo ^ hi
	k := uint(bits.TrailingZeros8(d)) & 7
	base, mark, g, dk := uint64(lo)*lanes, uint64(lanes)<<k, uint64(gather)>>k, uint64(d>>k)
	n := 0
	for len(pix) >= 32 && len(out) >= 4 {
		x0 := binary.LittleEndian.Uint64(pix[0:8]) ^ base
		x1 := binary.LittleEndian.Uint64(pix[8:16]) ^ base
		x2 := binary.LittleEndian.Uint64(pix[16:24]) ^ base
		x3 := binary.LittleEndian.Uint64(pix[24:32]) ^ base
		t0, t1, t2, t3 := x0&mark, x1&mark, x2&mark, x3&mark
		if (x0^t0*dk)|(x1^t1*dk)|(x2^t2*dk)|(x3^t3*dk) != 0 {
			return -1
		}
		out[0] = byte(t0 * g >> 56)
		out[1] = byte(t1 * g >> 56)
		out[2] = byte(t2 * g >> 56)
		out[3] = byte(t3 * g >> 56)
		pix, out, n = pix[32:], out[4:], n+32
	}
	return n
}

// UnpackInto writes b's pixels into dst, reusing dst's pixel buffer when
// it is large enough, and returns dst: the exact inverse of Pack. Every
// pixel is written, so dst's old contents and size do not matter.
func (b *Bitonal) UnpackInto(dst *Gray) *Gray {
	dst.reshape(b.W, b.H)
	base := uint64(b.Levels[0]) * lanes
	diff := uint64(b.Levels[0]^b.Levels[1]) * lanes
	full := len(dst.Pix) / 8
	pix := dst.Pix
	for _, c := range b.Bits[:full] {
		binary.LittleEndian.PutUint64(pix, base^spread[c]&diff)
		pix = pix[8:]
	}
	for i := range pix {
		pix[i] = b.Levels[b.Bits[full]>>i&1]
	}
	return dst
}
