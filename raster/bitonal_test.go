package raster

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestPackLayout pins the packed format: row-major pixels, least
// significant bit first, the higher level as a set bit, the spare bits of
// the last byte clear, and a one-level image as equal levels with every
// bit clear.
func TestPackLayout(t *testing.T) {
	g := &Gray{W: 5, H: 2, Pix: []byte{
		255, 0, 0, 255, 255,
		0, 0, 0, 0, 255,
	}}
	b, ok := Pack(g)
	if !ok {
		t.Fatal("two-level image refused")
	}
	if b.W != 5 || b.H != 2 || b.Levels != [2]byte{0, 255} {
		t.Fatalf("got %dx%d levels %v, want 5x2 [0 255]", b.W, b.H, b.Levels)
	}
	if want := []byte{0b00011001, 0b10}; !bytes.Equal(b.Bits, want) {
		t.Fatalf("bits %08b, want %08b", b.Bits, want)
	}

	flat := New(3, 7)
	for i := range flat.Pix {
		flat.Pix[i] = 128
	}
	b, ok = Pack(flat)
	if !ok || b.Levels != [2]byte{128, 128} || !bytes.Equal(b.Bits, make([]byte, 3)) {
		t.Fatalf("one-level image: ok %v levels %v bits %v", ok, b.Levels, b.Bits)
	}
}

// TestPackRefusesThirdLevel: a third level anywhere refuses the image —
// in the first or last 32-pixel block, at either end of a word inside a
// block, or in the pixels after the last whole block.
func TestPackRefusesThirdLevel(t *testing.T) {
	for _, wh := range [][2]int{{9, 13}, {25, 5}, {16, 4}} {
		n := wh[0] * wh[1]
		for _, at := range []int{0, 7, 8, 31, 32, n/32*32 - 1, n / 32 * 32, n - 1} {
			if at >= n {
				continue
			}
			g := New(wh[0], wh[1])
			g.Pix[3] = 0
			g.Pix[at] = 77
			if _, ok := Pack(g); ok {
				t.Fatalf("%dx%d: third level at %d accepted", wh[0], wh[1], at)
			}
		}
	}
}

// FuzzPack is the packing contract: Pack succeeds exactly when the image
// has at most two grey levels, into ⌈W·H/8⌉ bytes with the spare bits
// clear and the levels ordered, and UnpackInto restores the image byte
// for byte into a dirty destination of another size. Sizes run past the
// block and word boundaries, and pixel i takes
// levels[sel[i%len(sel)] % len(levels)] of at most three levels, which
// may coincide.
func FuzzPack(f *testing.F) {
	f.Add(uint16(1), uint16(1), []byte{9}, []byte{0})
	f.Add(uint16(13), uint16(1), []byte{0, 255, 7}, []byte{0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 2})
	f.Add(uint16(8), uint16(3), []byte{255, 0}, []byte{0, 1, 1, 0, 1})
	f.Add(uint16(390), uint16(300), []byte{0, 255}, []byte{1, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0})
	f.Add(uint16(17), uint16(5), []byte{128}, []byte{0})
	f.Add(uint16(31), uint16(3), []byte{40, 41, 42}, []byte{0, 1, 2, 1, 0})
	f.Add(uint16(12), uint16(12), []byte{200, 200, 3}, []byte{0, 1, 2})
	f.Add(uint16(64), uint16(2), []byte{1, 0}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, w, h uint16, levels, sel []byte) {
		g := New(1+int(w%400), 1+int(h%64))
		if len(levels) == 0 {
			levels = []byte{0}
		}
		if len(levels) > 3 {
			levels = levels[:3]
		}
		for i := range g.Pix {
			k := 0
			if len(sel) > 0 {
				k = int(sel[i%len(sel)]) % len(levels)
			}
			g.Pix[i] = levels[k]
		}
		var seen [256]bool
		distinct := 0
		for _, p := range g.Pix {
			if !seen[p] {
				seen[p] = true
				distinct++
			}
		}

		b, ok := Pack(g)
		if ok != (distinct <= 2) {
			t.Fatalf("%dx%d with %d levels: Pack ok = %v", g.W, g.H, distinct, ok)
		}
		if !ok {
			return
		}
		n := g.W * g.H
		if len(b.Bits) != (n+7)/8 {
			t.Fatalf("%d bytes of bits for %d pixels", len(b.Bits), n)
		}
		if n%8 != 0 && b.Bits[len(b.Bits)-1]>>(n%8) != 0 {
			t.Fatalf("spare bits set: last byte %08b for %d pixels", b.Bits[len(b.Bits)-1], n)
		}
		if b.Levels[0] > b.Levels[1] || !seen[b.Levels[0]] || !seen[b.Levels[1]] {
			t.Fatalf("levels %v", b.Levels)
		}
		dst := dirtyGray(1+g.H, 3+g.W)
		if got := b.UnpackInto(dst); got != dst || !Equal(got, g) {
			t.Fatalf("%dx%d: unpacked image differs from the packed one", g.W, g.H)
		}
	})
}

// emblemLike is a clean 390×300 frame, the perfbench profile's size:
// random 3 px black and white modules inside a white quiet zone.
func emblemLike() *Gray {
	rng := rand.New(rand.NewSource(1))
	g := New(390, 300)
	for my := 2; my < 98; my++ {
		for mx := 2; mx < 128; mx++ {
			if rng.Intn(2) == 0 {
				g.FillRect(3*mx, 3*my, 3*mx+3, 3*my+3, 0)
			}
		}
	}
	return g
}

// BenchmarkClone is the copy a written frame cost before frames were
// packed; BenchmarkPack replaces it.
func BenchmarkClone(b *testing.B) {
	g := emblemLike()
	b.SetBytes(int64(len(g.Pix)))
	for b.Loop() {
		g.Clone()
	}
}

func BenchmarkPack(b *testing.B) {
	g := emblemLike()
	b.SetBytes(int64(len(g.Pix)))
	for b.Loop() {
		if _, ok := Pack(g); !ok {
			b.Fatal("emblem refused")
		}
	}
}

// BenchmarkCopyInto is the zero scanner's copy of a stored frame into the
// scan scratch; BenchmarkUnpack is that copy from packed bits.
func BenchmarkCopyInto(b *testing.B) {
	g := emblemLike()
	dst := &Gray{}
	b.SetBytes(int64(len(g.Pix)))
	for b.Loop() {
		g.CopyInto(dst)
	}
}

func BenchmarkUnpack(b *testing.B) {
	g := emblemLike()
	p, ok := Pack(g)
	if !ok {
		b.Fatal("emblem refused")
	}
	dst := &Gray{}
	b.SetBytes(int64(len(g.Pix)))
	for b.Loop() {
		p.UnpackInto(dst)
	}
}
