package mocoder

import (
	"math"
	"math/rand"
	"testing"

	"microlonys/internal/emblem"
	"microlonys/raster"
)

// FuzzDecodeWith pins DecodeWith to decodeFullRef on scan-like frames
// whose samples can leave the image: TestDecodeWithDifferential keeps
// every sample inside, so the fallback branches of the clock search and
// the module sampler — a negative sx, a tap on the last column (x0+1 ==
// W), a 2×2 neighbourhood past the top or bottom row — are pinned here.
//
// From the fuzzed integers it encodes a seeded payload on one of
// fastLayouts, turns it by quarter turns and tilts it by up to ±0.32 rad,
// jitters and noises its rows, optionally blurs it, moves a window over
// it and overwrites a few pixels. The window is a translation, or a crop
// when it is smaller than the frame, with white where it leaves the
// frame, so the border can end against or past the canvas edge. Without
// the tilt, no frame found in a search had data rows past the top or
// bottom row and still got past orient. One scratch serves every input,
// so state leaking from one decode into the next is caught too.
func FuzzDecodeWith(f *testing.F) {
	// A mildly scanned frame that decodes, every sample inside.
	f.Add(int64(1), uint8(2), uint8(0), int8(0), uint8(6), uint8(3), uint8(1), int8(0), int8(0), uint8(0), uint8(0), uint8(0))
	// Jittered and cropped at the right: clock probes and module samples
	// on the last column (x0+1 == W) and past it; the frame still decodes.
	f.Add(int64(28), uint8(3), uint8(3), int8(0), uint8(10), uint8(25), uint8(1), int8(-5), int8(-3), uint8(21), uint8(9), uint8(1))
	// The next five frames fail to decode. Widening any one of the
	// interior tests by a pixel changes the Stats or the error of at least
	// one of them, or makes it panic.
	// Tilted and cropped: clock taps and module samples past the top or
	// bottom row.
	f.Add(int64(452), uint8(0), uint8(1), int8(-84), uint8(43), uint8(36), uint8(1), int8(-17), int8(1), uint8(29), uint8(22), uint8(8))
	// Heavily jittered and cropped on both sides: clock probes and module
	// samples at negative sx.
	f.Add(int64(94), uint8(3), uint8(0), int8(0), uint8(33), uint8(18), uint8(1), int8(3), int8(2), uint8(35), uint8(13), uint8(3))
	// Turned and cropped on both sides: clock probes and module samples on
	// the last column and past it.
	f.Add(int64(312), uint8(3), uint8(2), int8(-3), uint8(9), uint8(62), uint8(0), int8(19), int8(2), uint8(32), uint8(6), uint8(4))
	// Tilted 0.31 rad: corner-mark samples past the top or bottom row
	// (orient rejects the frame).
	f.Add(int64(34), uint8(0), uint8(2), int8(-124), uint8(62), uint8(16), uint8(2), int8(-20), int8(1), uint8(28), uint8(24), uint8(2))
	// Jittered and cropped at the left: clock probes and module samples
	// at negative sx.
	f.Add(int64(60), uint8(2), uint8(1), int8(0), uint8(48), uint8(0), uint8(0), int8(29), int8(4), uint8(32), uint8(10), uint8(4))
	var s DecodeScratch
	f.Fuzz(func(t *testing.T, seed int64, layout, turn uint8, tilt int8, jitter, noise, blur uint8, ox, oy int8, shrinkW, shrinkH, pokes uint8) {
		img, l := fuzzScan(seed, layout, turn, tilt, jitter, noise, blur, ox, oy, shrinkW, shrinkH, pokes)
		checkDecodeFrame(t, &s, img, l, "fuzzed scan")
	})
}

// fuzzScan builds FuzzDecodeWith's frame from its integers.
func fuzzScan(seed int64, layout, turn uint8, tilt int8, jitter, noise, blur uint8, ox, oy int8, shrinkW, shrinkH, pokes uint8) (*raster.Gray, emblem.Layout) {
	l := fastLayouts[int(layout)%len(fastLayouts)]
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, 1+rng.Intn(Capacity(l)))
	rng.Read(payload)
	img, err := Encode(payload, emblem.Header{Kind: emblem.KindRaw, Index: uint16(seed)}, l)
	if err != nil {
		panic(err) // every fastLayouts entry holds the payload
	}
	img = img.Rotate90(int(turn % 4))
	if tilt != 0 {
		sin, cos := math.Sincos(float64(tilt) / 400) // up to ±0.32 rad
		cx, cy := float64(img.W)/2, float64(img.H)/2
		img = img.Warp(func(x, y float64) (float64, float64) {
			dx, dy := x-cx, y-cy
			return cx + cos*dx - sin*dy, cy + sin*dx + cos*dy
		})
	}
	img = jitterImage(img, seed, float64(jitter%64)/8, float64(noise%32))
	if r := int(blur % 3); r > 0 {
		img = img.BoxBlur(r)
	}
	w, h := max(1, img.W-int(shrinkW%64)), max(1, img.H-int(shrinkH%64))
	win := raster.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			win.Pix[y*w+x] = img.At(x+int(ox), y+int(oy))
		}
	}
	for range pokes % 8 {
		win.Pix[rng.Intn(len(win.Pix))] = byte(rng.Intn(256))
	}
	return win, l
}
