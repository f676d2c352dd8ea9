package raster

import (
	"bytes"
	"math"
	"testing"
)

func TestNewIsWhite(t *testing.T) {
	g := New(4, 3)
	for _, p := range g.Pix {
		if p != 255 {
			t.Fatal("New not white")
		}
	}
	if NewBlack(2, 2).Pix[0] != 0 {
		t.Fatal("NewBlack not black")
	}
}

func TestAtSetBounds(t *testing.T) {
	g := New(3, 3)
	g.Set(1, 1, 7)
	if g.At(1, 1) != 7 {
		t.Fatal("Set/At")
	}
	if g.At(-1, 0) != 255 || g.At(3, 0) != 255 || g.At(0, 99) != 255 {
		t.Fatal("out-of-bounds reads must be white")
	}
	g.Set(-1, -1, 0) // must not panic
}

func TestFillRectClips(t *testing.T) {
	g := New(4, 4)
	g.FillRect(-5, -5, 2, 2, 0)
	if g.At(0, 0) != 0 || g.At(1, 1) != 0 || g.At(2, 2) != 255 {
		t.Fatal("FillRect region wrong")
	}
	g.FillRect(3, 3, 100, 100, 9)
	if g.At(3, 3) != 9 {
		t.Fatal("clipped fill missed corner")
	}
}

func TestSampleBilinear(t *testing.T) {
	g := New(2, 2)
	g.Set(0, 0, 0)
	g.Set(1, 0, 100)
	g.Set(0, 1, 200)
	g.Set(1, 1, 100)
	if v := g.SampleBilinear(0, 0); v != 0 {
		t.Fatalf("corner sample %v", v)
	}
	if v := g.SampleBilinear(0.5, 0); math.Abs(v-50) > 1e-9 {
		t.Fatalf("midpoint sample %v", v)
	}
	if v := g.SampleBilinear(0.5, 0.5); math.Abs(v-100) > 1e-9 {
		t.Fatalf("center sample %v", v)
	}
}

func TestOtsuBimodal(t *testing.T) {
	g := New(100, 100)
	g.FillRect(0, 0, 50, 100, 10) // half dark
	thr := g.OtsuThreshold()
	if thr <= 10 || thr > 255 {
		t.Fatalf("threshold %d not between modes", thr)
	}
	b := g.Threshold(thr)
	if b.At(0, 0) != 0 || b.At(99, 0) != 255 {
		t.Fatal("threshold output wrong")
	}
}

func TestResize(t *testing.T) {
	g := New(10, 10)
	g.FillRect(0, 0, 10, 5, 0)
	r := g.Resize(20, 20)
	if r.W != 20 || r.H != 20 {
		t.Fatal("size")
	}
	if r.At(10, 2) != 0 || r.At(10, 18) != 255 {
		t.Fatal("content not preserved")
	}
}

func TestWarpIdentity(t *testing.T) {
	g := New(8, 8)
	g.Set(3, 4, 42)
	w := g.Warp(func(x, y float64) (float64, float64) { return x, y })
	if !Equal(g, w) {
		t.Fatal("identity warp changed image")
	}
}

func TestBoxBlurPreservesMean(t *testing.T) {
	g := New(50, 50)
	g.FillRect(10, 10, 40, 40, 0)
	before := g.Mean()
	b := g.BoxBlur(2)
	after := b.Mean()
	if math.Abs(before-after) > 3 {
		t.Fatalf("blur changed mean %f -> %f", before, after)
	}
	if b.At(25, 25) != 0 {
		t.Fatal("interior should stay black")
	}
	if b.At(10, 10) == 0 {
		t.Fatal("edge should be smoothed")
	}
	if !Equal(g, g.BoxBlur(0)) {
		t.Fatal("radius 0 must be identity")
	}
}

func TestRotate90RoundTrip(t *testing.T) {
	g := New(5, 3)
	n := byte(0)
	for y := 0; y < 3; y++ {
		for x := 0; x < 5; x++ {
			g.Set(x, y, n)
			n++
		}
	}
	r1 := g.Rotate90(1)
	if r1.W != 3 || r1.H != 5 {
		t.Fatal("rot90 dims")
	}
	// Top-left goes to top-right under CW rotation.
	if r1.At(2, 0) != g.At(0, 0) {
		t.Fatalf("rot90 content: got %d", r1.At(2, 0))
	}
	if !Equal(g, g.Rotate90(1).Rotate90(3)) {
		t.Fatal("rot90+rot270 != identity")
	}
	if !Equal(g, g.Rotate90(2).Rotate90(2)) {
		t.Fatal("rot180 twice != identity")
	}
	if !Equal(g.Rotate90(-1), g.Rotate90(3)) {
		t.Fatal("negative rotation")
	}
}

func TestPNGRoundTrip(t *testing.T) {
	g := New(17, 9)
	for i := range g.Pix {
		g.Pix[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := g.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, got) {
		t.Fatal("PNG round trip")
	}
}

func TestDiffCount(t *testing.T) {
	a := New(4, 4)
	b := New(4, 4)
	if DiffCount(a, b) != 0 {
		t.Fatal("identical images differ")
	}
	b.Set(0, 0, 0)
	b.Set(3, 3, 0)
	if DiffCount(a, b) != 2 {
		t.Fatal("count wrong")
	}
	if Equal(a, b) {
		t.Fatal("Equal on different images")
	}
	if Equal(a, New(3, 4)) {
		t.Fatal("Equal on different sizes")
	}
}

func TestInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0x0")
		}
	}()
	New(0, 0)
}
