// Package media simulates the visual analog media of the paper's
// evaluation (§4): laser-printed archival paper, 16 mm microfilm written by
// an archive writer, and 35 mm black-and-white cinema film — together with
// the degradations the paper lists as the threats MOCoder must survive:
// film distortion, fading, hot spots, scratches, dust, lens curvature and
// the unsteady mechanical motion of linear-array scanners (§3.1).
//
// Physical devices are replaced by raster simulation: "writing" quantises
// and stores frames, "scanning" resamples them at the scanner's resolution
// and applies a distortion model. The distortion parameters of each
// built-in profile are calibrated so that an undamaged archive decodes
// (as the paper's experiments did), while the failure-injection helpers
// can push any frame beyond the correction thresholds.
package media

import (
	"math"
	"math/rand"

	"microlonys/raster"
)

// Distortions models everything that can go wrong between writing an
// emblem and handing its scan to MOCoder. The zero value applies nothing.
type Distortions struct {
	Seed int64 // deterministic randomness; 0 derives from frame index

	// Geometry (lens and transport mechanics).
	RotationDeg float64 // page/film skew, degrees
	BarrelK     float64 // radial lens distortion: >0 barrel, <0 pincushion
	RowJitterPx float64 // max horizontal drift from scanner motion, pixels

	// Optics.
	BlurRadius int // lens defocus (box blur radius, pixels)

	// Photometry (media ageing).
	Fade     float64 // 0..1 contrast compression toward mid-gray
	Gradient float64 // 0..1 illumination gradient / hot-spot amplitude
	Noise    float64 // additive noise standard deviation (intensity units)

	// Physical damage.
	DustSpecks    int // random dark/light blobs
	DustMaxRadius int // max blob radius, pixels (default 3)
	Scratches     int // thin straight lines across the frame

}

// Scale returns the model with every severity dial multiplied by f — the
// damage-campaign harness's sweep hook. Continuous fields scale linearly
// (Fade clamps at 1, full contrast collapse); the integer counts round to
// nearest, so small non-zero dials survive moderate down-scaling only when
// they round back to at least one. Seed and DustMaxRadius pass through
// unchanged, and Scale(1) returns d exactly.
func (d Distortions) Scale(f float64) Distortions {
	if f < 0 {
		f = 0
	}
	d.RotationDeg *= f
	d.BarrelK *= f
	d.RowJitterPx *= f
	d.Fade *= f
	if d.Fade > 1 {
		d.Fade = 1
	}
	d.Gradient *= f
	d.Noise *= f
	d.BlurRadius = int(math.Round(float64(d.BlurRadius) * f))
	d.DustSpecks = int(math.Round(float64(d.DustSpecks) * f))
	d.Scratches = int(math.Round(float64(d.Scratches) * f))
	return d
}

// IsZero reports whether the distortion model applies nothing at all —
// Apply would only clone. Seed is ignored: it selects randomness that a
// zero model never consumes. The writer side of every built-in profile is
// zero, so the archive place stage rides this fast path.
func (d Distortions) IsZero() bool {
	return d.RotationDeg == 0 && d.BarrelK == 0 && d.RowJitterPx == 0 &&
		d.BlurRadius <= 0 && d.Fade <= 0 && d.Gradient <= 0 && d.Noise <= 0 &&
		d.DustSpecks <= 0 && d.Scratches <= 0
}

// Apply returns a distorted copy of img: applyInto over a fresh scratch.
// The result is a copy of the image header, so the scratch's other
// buffers do not stay reachable from a stored frame.
func (d Distortions) Apply(img *raster.Gray) *raster.Gray {
	out := *d.applyInto(&ScanScratch{}, img)
	return &out
}

// warpGeometry resamples src→dst through the inverse mapping of the
// geometric distortions: per-row jitter shift, then lens curvature, then
// rotation about the frame centre. Barrel-free models (every built-in
// scanner except microfilm) take the raster specialization; lens
// curvature runs through a per-row mapper that hoists the jitter shift and
// the row's y offset. Both evaluate the per-pixel reference arithmetic, so
// the resampled bytes are bit-identical to it
// (TestApplyFastPathDifferential covers each model class).
func (d Distortions) warpGeometry(src, dst *raster.Gray, jitter []float64) *raster.Gray {
	theta := d.RotationDeg * math.Pi / 180
	sin, cos := math.Sin(theta), math.Cos(theta)
	if d.RowJitterPx == 0 {
		jitter = nil
	}
	if d.BarrelK == 0 {
		return src.WarpShiftRotateInto(dst, sin, cos, theta != 0, jitter)
	}
	cx, cy := float64(src.W)/2, float64(src.H)/2
	rmax := math.Hypot(cx, cy)
	return src.WarpRowsInto(dst, func(y float64) func(x float64) (float64, float64) {
		shift := 0.0
		if yi := int(y); yi >= 0 && yi < len(jitter) {
			shift = jitter[yi]
		}
		dy := y - cy
		return func(x float64) (float64, float64) {
			if jitter != nil {
				x += shift
			}
			dx := x - cx
			r := math.Hypot(dx, dy) / rmax
			s := 1 + d.BarrelK*r*r
			dx *= s
			dyb := dy * s
			if theta != 0 {
				return cx + (cos*dx - sin*dyb), cy + (sin*dx + cos*dyb)
			}
			return cx + dx, cy + dyb
		}
	})
}

// photometryInPlace applies fade, illumination gradient and noise to out.
// The noise-only model — most built-in scanners on most rows — gets its
// own loop: with Fade non-positive (the per-pixel fade branch is skipped)
// and Gradient exactly zero (the gradient term is exactly 0.0, and adding
// it never changes a finite pixel value), the specialized loop computes
// the identical bytes without the per-pixel flag checks. A *negative*
// Gradient must take the general loop: the reference adds its term
// whenever this stage runs.
func (d Distortions) photometryInPlace(out *raster.Gray, rng *rand.Rand) {
	if d.Fade <= 0 && d.Gradient == 0 && d.Noise > 0 {
		noise := d.Noise
		for i := range out.Pix {
			out.Pix[i] = clamp(float64(out.Pix[i]) + rng.NormFloat64()*noise)
		}
		return
	}
	fade := 1 - d.Fade
	for y := 0; y < out.H; y++ {
		// Illumination gradient: brighter on one side, as from an
		// uneven lamp or a hot spot during filming.
		grad := d.Gradient * 60 * (float64(y)/float64(out.H) - 0.5)
		row := out.Pix[y*out.W : (y+1)*out.W]
		for x := range row {
			v := float64(row[x])
			if d.Fade > 0 {
				v = 128 + (v-128)*fade
			}
			v += grad
			if d.Noise > 0 {
				v += rng.NormFloat64() * d.Noise
			}
			row[x] = clamp(v)
		}
	}
}

// damageInPlace applies dust specks and scratches to out.
func (d Distortions) damageInPlace(out *raster.Gray, rng *rand.Rand) {
	maxR := d.DustMaxRadius
	if maxR <= 0 {
		maxR = 3
	}
	for i := 0; i < d.DustSpecks; i++ {
		x := rng.Intn(out.W)
		y := rng.Intn(out.H)
		r := 1 + rng.Intn(maxR)
		shade := byte(0)
		if rng.Intn(2) == 0 {
			shade = 255
		}
		fillCircle(out, x, y, r, shade)
	}
	for i := 0; i < d.Scratches; i++ {
		drawScratch(out, rng)
	}
}

// rowJitterInto builds a bounded random walk into a reused buffer:
// adjacent scan lines drift by a fraction of a pixel, accumulating up to
// ±amplitude — the signature of unsteady transport in linear-array
// scanners and ADFs. A zero amplitude consumes no randomness.
func rowJitterInto(rng *rand.Rand, buf []float64, rows int, amplitude float64) []float64 {
	if cap(buf) < rows {
		buf = make([]float64, rows)
	}
	j := buf[:rows]
	if amplitude == 0 {
		for y := range j {
			j[y] = 0
		}
		return j
	}
	cur := 0.0
	for y := range j {
		cur += rng.NormFloat64() * amplitude / 18
		if cur > amplitude {
			cur = amplitude
		}
		if cur < -amplitude {
			cur = -amplitude
		}
		j[y] = cur
	}
	return j
}

func fillCircle(g *raster.Gray, cx, cy, r int, v byte) {
	for y := cy - r; y <= cy+r; y++ {
		for x := cx - r; x <= cx+r; x++ {
			dx, dy := x-cx, y-cy
			if dx*dx+dy*dy <= r*r {
				g.Set(x, y, v)
			}
		}
	}
}

// drawScratch draws a thin, slightly slanted line across the frame, dark
// or light, like an emulsion scratch.
func drawScratch(g *raster.Gray, rng *rand.Rand) {
	shade := byte(0)
	if rng.Intn(2) == 0 {
		shade = 255
	}
	vertical := rng.Intn(2) == 0
	if vertical {
		x := float64(rng.Intn(g.W))
		slope := (rng.Float64() - 0.5) * 0.1
		for y := 0; y < g.H; y++ {
			g.Set(int(x), y, shade)
			x += slope
		}
	} else {
		y := float64(rng.Intn(g.H))
		slope := (rng.Float64() - 0.5) * 0.1
		for x := 0; x < g.W; x++ {
			g.Set(x, int(y), shade)
			y += slope
		}
	}
}

func clamp(v float64) byte {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return byte(v + 0.5)
}
