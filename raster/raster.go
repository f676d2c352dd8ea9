// Package raster provides the grayscale image type shared by MOCoder and
// the analog-media simulators, together with the sampling, warping and
// thresholding primitives the emblem decoder needs.
//
// Images are 8-bit grayscale: 0 is black (exposed film / printed toner),
// 255 is white. Bitonal media (microfilm writers, laser printers) use the
// same type restricted to {0, 255}, and Bitonal keeps an image of at most
// two levels at one bit per pixel.
package raster

import (
	"fmt"
	"image"
	"image/png"
	"io"
	"math"
)

// Gray is an 8-bit grayscale image with row-major pixels.
type Gray struct {
	W, H int
	Pix  []byte // len = W*H
}

// New returns a white (255) image of the given size.
func New(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("raster: invalid size %dx%d", w, h))
	}
	g := &Gray{W: w, H: h, Pix: make([]byte, w*h)}
	fill(g.Pix, 255)
	return g
}

// fill sets every byte of b, which is not empty, to v by doubling copies:
// memmove-backed, where a byte-store loop shows up on multi-megapixel
// frames (Go only pattern-matches zero fills).
func fill(b []byte, v byte) {
	b[0] = v
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// NewBlack returns an all-black image.
func NewBlack(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("raster: invalid size %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]byte, w*h)}
}

// At returns the pixel at (x, y); out-of-bounds reads return white, which
// matches the unexposed margin around a scanned frame.
func (g *Gray) At(x, y int) byte {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return 255
	}
	return g.Pix[y*g.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are dropped.
func (g *Gray) Set(x, y int, v byte) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = v
}

// FillRect paints the rectangle [x0,x1)×[y0,y1) with v, clipped to bounds.
func (g *Gray) FillRect(x0, y0, x1, y1 int, v byte) {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > g.W {
		x1 = g.W
	}
	if y1 > g.H {
		y1 = g.H
	}
	if x0 >= x1 {
		return
	}
	for y := y0; y < y1; y++ {
		fill(g.Pix[y*g.W+x0:y*g.W+x1], v)
	}
}

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	return &Gray{W: g.W, H: g.H, Pix: append([]byte(nil), g.Pix...)}
}

// reshape resizes dst's backing store to w×h, reusing the pixel buffer
// when it is large enough. Contents are unspecified.
func (g *Gray) reshape(w, h int) {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("raster: invalid size %dx%d", w, h))
	}
	g.W, g.H = w, h
	if cap(g.Pix) < w*h {
		g.Pix = make([]byte, w*h)
	} else {
		g.Pix = g.Pix[:w*h]
	}
}

// CopyInto copies g into dst, reusing dst's pixel buffer when possible,
// and returns dst. Clone for callers that recycle a destination image
// across frames (the scan-path scratch).
func (g *Gray) CopyInto(dst *Gray) *Gray {
	dst.reshape(g.W, g.H)
	copy(dst.Pix, g.Pix)
	return dst
}

// SampleBilinear returns the bilinearly interpolated intensity at the
// floating-point position (x, y). Out-of-bounds regions read as white.
//
// Interior samples — the overwhelming case for the scanner simulation,
// Rectify and the emblem reader, which all sample well inside the frame
// — index Pix directly instead of taking four bounds-checked At calls.
// Both paths evaluate the identical expression, so results are
// bit-for-bit the same.
func (g *Gray) SampleBilinear(x, y float64) float64 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := x - float64(x0)
	fy := y - float64(y0)
	var p00, p10, p01, p11 float64
	if x0 >= 0 && y0 >= 0 && x0+1 < g.W && y0+1 < g.H {
		i := y0*g.W + x0
		p00 = float64(g.Pix[i])
		p10 = float64(g.Pix[i+1])
		p01 = float64(g.Pix[i+g.W])
		p11 = float64(g.Pix[i+g.W+1])
	} else {
		p00 = float64(g.At(x0, y0))
		p10 = float64(g.At(x0+1, y0))
		p01 = float64(g.At(x0, y0+1))
		p11 = float64(g.At(x0+1, y0+1))
	}
	return p00*(1-fx)*(1-fy) + p10*fx*(1-fy) + p01*(1-fx)*fy + p11*fx*fy
}

// Mean returns the average intensity.
func (g *Gray) Mean() float64 {
	var sum uint64
	for _, p := range g.Pix {
		sum += uint64(p)
	}
	return float64(sum) / float64(len(g.Pix))
}

// Histogram returns the 256-bin intensity histogram. Four sub-histograms
// accumulate interleaved pixels so runs of equal values (the common case
// on near-bitonal frames) do not serialise on one counter's
// store-to-load dependency; the merged counts are exactly the single
// accumulator's.
func (g *Gray) Histogram() [256]int {
	var h0, h1, h2, h3 [256]int
	p := g.Pix
	n := len(p) &^ 3
	for i := 0; i < n; i += 4 {
		h0[p[i]]++
		h1[p[i+1]]++
		h2[p[i+2]]++
		h3[p[i+3]]++
	}
	for _, v := range p[n:] {
		h0[v]++
	}
	var h [256]int
	for i := range h {
		h[i] = h0[i] + h1[i] + h2[i] + h3[i]
	}
	return h
}

// OtsuThreshold computes the global binarisation threshold that maximises
// inter-class variance — the first step of emblem decoding on a scan whose
// black/white levels have drifted with fading or exposure.
func (g *Gray) OtsuThreshold() byte {
	hist := g.Histogram()
	total := len(g.Pix)
	var sumAll float64
	for i, c := range hist {
		sumAll += float64(i) * float64(c)
	}
	var sumB, wB float64
	var best float64
	bestMid := 128.0
	for t := 0; t < 256; t++ {
		wB += float64(hist[t])
		if wB == 0 {
			continue
		}
		wF := float64(total) - wB
		if wF == 0 {
			break
		}
		sumB += float64(t) * float64(hist[t])
		mB := sumB / wB
		mF := (sumAll - sumB) / wF
		between := wB * wF * (mB - mF) * (mB - mF)
		if between > best {
			best = between
			// Split halfway between the class means rather than at the
			// class boundary: near-binary histograms make the boundary
			// degenerate (argmax plateau starting at t=0), and the
			// midpoint classifies blur-graded pixels sensibly.
			bestMid = (mB + mF) / 2
		}
	}
	if bestMid < 1 {
		bestMid = 1
	}
	if bestMid > 255 {
		bestMid = 255
	}
	return byte(bestMid)
}

// Threshold returns a bitonal copy: pixels < t become 0, others 255.
func (g *Gray) Threshold(t byte) *Gray {
	return g.ThresholdInto(&Gray{}, t)
}

// ThresholdInto is Threshold into a reused destination; dst may be g
// itself for in-place quantisation.
func (g *Gray) ThresholdInto(dst *Gray, t byte) *Gray {
	dst.reshape(g.W, g.H)
	pix, out := g.Pix, dst.Pix
	for i, p := range pix {
		if p < t {
			out[i] = 0
		} else {
			out[i] = 255
		}
	}
	return dst
}

// Resize scales to w×h. Upscaling interpolates bilinearly; downscaling
// averages over the source area each destination pixel covers, which is
// how a scanner sensor integrates light (and avoids aliasing on module
// boundaries).
func (g *Gray) Resize(w, h int) *Gray {
	return g.ResizeInto(&Gray{}, w, h)
}

// ResizeInto is Resize into a reused destination (every destination pixel
// is written, so no clearing is needed); dst must not alias g.
func (g *Gray) ResizeInto(dst *Gray, w, h int) *Gray {
	out := dst
	out.reshape(w, h)
	sx := float64(g.W) / float64(w)
	sy := float64(g.H) / float64(h)
	if sx <= 1 && sy <= 1 {
		for y := 0; y < h; y++ {
			srcY := (float64(y)+0.5)*sy - 0.5
			row := out.row(y)
			for x := 0; x < w; x++ {
				srcX := (float64(x)+0.5)*sx - 0.5
				row[x] = clampByte(g.SampleBilinear(srcX, srcY))
			}
		}
		return out
	}
	for y := 0; y < h; y++ {
		y0 := float64(y) * sy
		y1 := y0 + sy
		row := out.row(y)
		for x := 0; x < w; x++ {
			x0 := float64(x) * sx
			x1 := x0 + sx
			row[x] = clampByte(g.areaAverage(x0, y0, x1, y1))
		}
	}
	return out
}

// areaAverage integrates intensity over the source rectangle
// [x0,x1)×[y0,y1) in pixel-box coordinates (pixel i covers [i, i+1)).
// Rectangles fully inside the image — every downscale source box except
// the border rows/columns — read Pix through a row slice instead of
// bounds-checked At calls; the summation order and arithmetic are
// identical on both paths.
func (g *Gray) areaAverage(x0, y0, x1, y1 float64) float64 {
	ix0, iy0 := int(math.Floor(x0)), int(math.Floor(y0))
	ix1, iy1 := int(math.Ceil(x1)), int(math.Ceil(y1))
	var sum, area float64
	interior := ix0 >= 0 && iy0 >= 0 && ix1 <= g.W && iy1 <= g.H
	for iy := iy0; iy < iy1; iy++ {
		hy := math.Min(y1, float64(iy+1)) - math.Max(y0, float64(iy))
		if hy <= 0 {
			continue
		}
		if interior {
			row := g.Pix[iy*g.W : iy*g.W+g.W]
			for ix := ix0; ix < ix1; ix++ {
				wx := math.Min(x1, float64(ix+1)) - math.Max(x0, float64(ix))
				if wx <= 0 {
					continue
				}
				sum += wx * hy * float64(row[ix])
				area += wx * hy
			}
			continue
		}
		for ix := ix0; ix < ix1; ix++ {
			wx := math.Min(x1, float64(ix+1)) - math.Max(x0, float64(ix))
			if wx <= 0 {
				continue
			}
			sum += wx * hy * float64(g.At(ix, iy))
			area += wx * hy
		}
	}
	if area == 0 {
		return 255
	}
	return sum / area
}

// Warp resamples the image through an inverse mapping: for every output
// pixel (x, y), f returns the source position to sample. Distortion models
// (lens curvature, rotation, scanner jitter) are expressed as warps.
func (g *Gray) Warp(f func(x, y float64) (sx, sy float64)) *Gray {
	out := New(g.W, g.H)
	for y := 0; y < g.H; y++ {
		row := out.row(y)
		for x := 0; x < g.W; x++ {
			sx, sy := f(float64(x), float64(y))
			row[x] = clampByte(g.SampleBilinear(sx, sy))
		}
	}
	return out
}

// WarpRows is Warp with a per-row setup hook: rowf is called once per
// output row and returns the inverse mapping for that row's pixels.
// Distortion models hoist row-invariant terms (jitter shift, rotation
// components of the row's y offset) out of the per-pixel loop this way.
func (g *Gray) WarpRows(rowf func(y float64) func(x float64) (sx, sy float64)) *Gray {
	return g.WarpRowsInto(&Gray{}, rowf)
}

// WarpRowsInto is WarpRows into a reused destination; dst must not alias
// g (the warp reads arbitrary source positions while writing).
//
// The bilinear sample is expanded inline for the interior case — the
// overwhelming majority of warp samples — with the exact expression
// SampleBilinear's interior path evaluates (same loads, same operation
// order, so the resampled bytes are bit-identical; the scanner-model
// differential in media/fastpath_test.go pins this against the
// SampleBilinear formulation). Border samples fall back to the one shared
// implementation.
func (g *Gray) WarpRowsInto(dst *Gray, rowf func(y float64) func(x float64) (sx, sy float64)) *Gray {
	out := dst
	out.reshape(g.W, g.H)
	w, h := g.W, g.H
	pix := g.Pix
	for y := 0; y < h; y++ {
		row := out.row(y)
		f := rowf(float64(y))
		for x := 0; x < w; x++ {
			sx, sy := f(float64(x))
			x0 := int(math.Floor(sx))
			y0 := int(math.Floor(sy))
			var v float64
			if x0 >= 0 && y0 >= 0 && x0+1 < w && y0+1 < h {
				fx := sx - float64(x0)
				fy := sy - float64(y0)
				i := y0*w + x0
				r0 := pix[i : i+2]
				r1 := pix[i+w : i+w+2]
				p00 := float64(r0[0])
				p10 := float64(r0[1])
				p01 := float64(r1[0])
				p11 := float64(r1[1])
				v = p00*(1-fx)*(1-fy) + p10*fx*(1-fy) + p01*(1-fx)*fy + p11*fx*fy
			} else {
				v = g.SampleBilinear(sx, sy)
			}
			// v is a convex combination of byte values (see
			// WarpShiftRotateInto): clampByte reduces to its rounding arm.
			row[x] = byte(v + 0.5)
		}
	}
	return out
}

// WarpShiftRotateInto resamples through the inverse mapping of a per-row
// horizontal shift followed by a rotation about the image centre — the
// geometry of every barrel-free scanner model. The per-pixel arithmetic
// is exactly what the general WarpRows row mapper evaluates for that
// model (jitter add, then the hoisted rotation terms; rotate selects the
// same theta != 0 branch), executed without the per-pixel closure call.
// jitter nil means no shift stage at all. dst must not alias g.
func (g *Gray) WarpShiftRotateInto(dst *Gray, sin, cos float64, rotate bool, jitter []float64) *Gray {
	out := dst
	out.reshape(g.W, g.H)
	w, h := g.W, g.H
	pix := g.Pix
	cx, cy := float64(w)/2, float64(h)/2
	hasJitter := jitter != nil
	// Without a row shift, cos·dx and sin·dx depend on the column alone —
	// hoist them out of the row loop (the same multiplications on the
	// same operands, so the sampled positions are bit-identical).
	var cosDx, sinDx []float64
	if !hasJitter && rotate {
		cosDx = make([]float64, w)
		sinDx = make([]float64, w)
		for x := 0; x < w; x++ {
			dx := float64(x) - cx
			cosDx[x] = cos * dx
			sinDx[x] = sin * dx
		}
	}
	for y := 0; y < h; y++ {
		fy := float64(y)
		shift := 0.0
		if hasJitter {
			if yi := int(fy); yi >= 0 && yi < len(jitter) {
				shift = jitter[yi]
			}
		}
		dy := fy - cy
		sinDy, cosDy := sin*dy, cos*dy
		row := out.row(y)
		for x := 0; x < w; x++ {
			var sx, sy float64
			if cosDx != nil {
				sx = cx + (cosDx[x] - sinDy)
				sy = cy + (sinDx[x] + cosDy)
			} else {
				fx := float64(x)
				if hasJitter {
					fx += shift
				}
				dx := fx - cx
				if rotate {
					sx = cx + (cos*dx - sinDy)
					sy = cy + (sin*dx + cosDy)
				} else {
					sx = cx + dx
					sy = cy + dy
				}
			}
			x0 := int(math.Floor(sx))
			y0 := int(math.Floor(sy))
			var v float64
			if x0 >= 0 && y0 >= 0 && x0+1 < w && y0+1 < h {
				gx := sx - float64(x0)
				gy := sy - float64(y0)
				i := y0*w + x0
				r0 := pix[i : i+2]
				r1 := pix[i+w : i+w+2]
				p00 := float64(r0[0])
				p10 := float64(r0[1])
				p01 := float64(r1[0])
				p11 := float64(r1[1])
				v = p00*(1-gx)*(1-gy) + p10*gx*(1-gy) + p01*(1-gx)*gy + p11*gx*gy
			} else {
				v = g.SampleBilinear(sx, sy)
			}
			// A bilinear sample is a convex combination of byte values, so
			// v is always in [0, 255] and clampByte reduces to its rounding
			// arm (clampByte(v) == byte(v+0.5) on that whole range).
			row[x] = byte(v + 0.5)
		}
	}
	return out
}

// BoxBlur applies an n-radius box blur (separable, two passes). Three
// successive box blurs approximate a Gaussian; one pass models mild lens
// defocus well enough for the decode-robustness experiments.
//
// Both passes walk the image row-major: the vertical pass carries one
// running sum per column and slides all of them down a row at a time, so
// it streams whole rows instead of striding H pixels between touches.
// The per-column sums it maintains are exactly the sums the per-column
// walk would compute, keeping the output byte-identical.
func (g *Gray) BoxBlur(radius int) *Gray {
	return g.BoxBlurInto(&Gray{}, &Gray{}, radius)
}

// BoxBlurInto is BoxBlur through reused buffers: the result lands in dst,
// tmp holds the horizontal pass. dst may alias g (the source is fully
// consumed by the horizontal pass); tmp must alias neither.
func (g *Gray) BoxBlurInto(dst, tmp *Gray, radius int) *Gray {
	if radius <= 0 {
		return g.CopyInto(dst)
	}
	tmp.reshape(g.W, g.H)
	win := 2*radius + 1
	// A window sum of win bytes is at most 255·win, so byte(sum/win) is a
	// table lookup — integer division by a runtime-variable window is the
	// slowest per-pixel operation in both passes otherwise.
	div := make([]byte, 255*win+1)
	for v := range div {
		div[v] = byte(v / win)
	}
	// horizontal; the interior span needs no edge clamping, so it slides
	// the window with direct loads (identical values: atClamped is the
	// identity for in-range indices).
	lo, hi := radius, g.W-radius-1
	if lo > g.W {
		lo = g.W
	}
	if hi < lo {
		hi = lo
	}
	for y := 0; y < g.H; y++ {
		row := g.Pix[y*g.W : y*g.W+g.W]
		var sum int
		for x := -radius; x <= radius; x++ {
			sum += int(atClamped(row, g.W, x))
		}
		dst := tmp.Pix[y*g.W:]
		for x := 0; x < lo; x++ {
			dst[x] = div[sum]
			sum += int(atClamped(row, g.W, x+radius+1)) - int(atClamped(row, g.W, x-radius))
		}
		for x := lo; x < hi; x++ {
			dst[x] = div[sum]
			sum += int(row[x+radius+1]) - int(row[x-radius])
		}
		for x := hi; x < g.W; x++ {
			dst[x] = div[sum]
			sum += int(atClamped(row, g.W, x+radius+1)) - int(atClamped(row, g.W, x-radius))
		}
	}
	// vertical
	out := dst
	out.reshape(g.W, g.H)
	sums := make([]int, g.W)
	for y := -radius; y <= radius; y++ {
		row := tmp.row(clampRow(y, g.H))
		for x, p := range row {
			sums[x] += int(p)
		}
	}
	for y := 0; y < g.H; y++ {
		dst := out.Pix[y*g.W : y*g.W+g.W]
		for x := range dst {
			dst[x] = div[sums[x]]
		}
		add := tmp.row(clampRow(y+radius+1, g.H))
		sub := tmp.row(clampRow(y-radius, g.H))
		for x := range sums {
			sums[x] += int(add[x]) - int(sub[x])
		}
	}
	return out
}

func atClamped(row []byte, w, x int) byte {
	if x < 0 {
		x = 0
	}
	if x >= w {
		x = w - 1
	}
	return row[x]
}

// row returns row y of the image as a slice.
func (g *Gray) row(y int) []byte {
	return g.Pix[y*g.W : y*g.W+g.W]
}

func clampRow(y, h int) int {
	if y < 0 {
		return 0
	}
	if y >= h {
		return h - 1
	}
	return y
}

func clampByte(v float64) byte {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return byte(v + 0.5)
}

// Rotate90 returns the image rotated clockwise by k×90 degrees.
func (g *Gray) Rotate90(k int) *Gray {
	k = ((k % 4) + 4) % 4
	switch k {
	case 0:
		return g.Clone()
	case 2:
		out := &Gray{W: g.W, H: g.H, Pix: make([]byte, len(g.Pix))}
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				out.Pix[(g.H-1-y)*g.W+(g.W-1-x)] = g.Pix[y*g.W+x]
			}
		}
		return out
	case 1:
		out := &Gray{W: g.H, H: g.W, Pix: make([]byte, len(g.Pix))}
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				// (x, y) → (H-1-y, x)
				out.Pix[x*out.W+(g.H-1-y)] = g.Pix[y*g.W+x]
			}
		}
		return out
	default: // 3
		out := &Gray{W: g.H, H: g.W, Pix: make([]byte, len(g.Pix))}
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				// (x, y) → (y, W-1-x)
				out.Pix[(g.W-1-x)*out.W+y] = g.Pix[y*g.W+x]
			}
		}
		return out
	}
}

// EncodePNG writes the image as an 8-bit grayscale PNG.
func (g *Gray) EncodePNG(w io.Writer) error {
	img := image.NewGray(image.Rect(0, 0, g.W, g.H))
	copy(img.Pix, g.Pix)
	return png.Encode(w, img)
}

// DecodePNG reads a PNG (any color model) as grayscale.
func DecodePNG(r io.Reader) (*Gray, error) {
	img, err := png.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("raster: %w", err)
	}
	b := img.Bounds()
	g := New(b.Dx(), b.Dy())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r16, g16, b16, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
			// ITU-R BT.601 luma.
			lum := (299*r16 + 587*g16 + 114*b16) / 1000
			g.Pix[y*g.W+x] = byte(lum >> 8)
		}
	}
	return g, nil
}

// Equal reports whether two images are identical.
func Equal(a, b *Gray) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return false
		}
	}
	return true
}

// DiffCount returns the number of differing pixels between equally sized
// images; it panics on size mismatch.
func DiffCount(a, b *Gray) int {
	if a.W != b.W || a.H != b.H {
		panic("raster: DiffCount size mismatch")
	}
	n := 0
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			n++
		}
	}
	return n
}
