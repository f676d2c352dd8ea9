package media

import (
	"math"
	"math/rand"
	"testing"

	"microlonys/raster"
)

// applyRef is the pre-fast-path Apply: one per-pixel closure with all
// branches inside, via the plain raster.Warp. The hoisted WarpRows
// formulation must produce bit-identical images for every model.
func applyRef(d Distortions, img *raster.Gray) *raster.Gray {
	rng := rand.New(rand.NewSource(d.Seed))
	out := img

	if d.RotationDeg != 0 || d.BarrelK != 0 || d.RowJitterPx != 0 {
		theta := d.RotationDeg * math.Pi / 180
		sin, cos := math.Sin(theta), math.Cos(theta)
		cx, cy := float64(out.W)/2, float64(out.H)/2
		rmax := math.Hypot(cx, cy)
		jitter := rowJitterInto(rng, nil, out.H, d.RowJitterPx)
		src := out
		out = src.Warp(func(x, y float64) (float64, float64) {
			if d.RowJitterPx != 0 {
				yi := int(y)
				if yi >= 0 && yi < len(jitter) {
					x += jitter[yi]
				}
			}
			dx, dy := x-cx, y-cy
			if d.BarrelK != 0 {
				r := math.Hypot(dx, dy) / rmax
				s := 1 + d.BarrelK*r*r
				dx *= s
				dy *= s
			}
			if theta != 0 {
				dx, dy = cos*dx-sin*dy, sin*dx+cos*dy
			}
			return cx + dx, cy + dy
		})
	}

	if d.BlurRadius > 0 {
		out = out.BoxBlur(d.BlurRadius)
	}

	if d.Fade > 0 || d.Gradient > 0 || d.Noise > 0 {
		if out == img {
			out = img.Clone()
		}
		for y := 0; y < out.H; y++ {
			grad := d.Gradient * 60 * (float64(y)/float64(out.H) - 0.5)
			for x := 0; x < out.W; x++ {
				v := float64(out.Pix[y*out.W+x])
				if d.Fade > 0 {
					v = 128 + (v-128)*(1-d.Fade)
				}
				v += grad
				if d.Noise > 0 {
					v += rng.NormFloat64() * d.Noise
				}
				out.Pix[y*out.W+x] = clamp(v)
			}
		}
	}

	if d.DustSpecks > 0 || d.Scratches > 0 {
		if out == img {
			out = img.Clone()
		}
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

	if out == img {
		out = img.Clone()
	}
	return out
}

// TestApplyFastPathDifferential pins the restructured Apply (IsZero early
// return, WarpRows hoisting, row-sliced photometry) to the reference
// formulation: bit-identical output for the zero model, each distortion
// alone, every built-in profile's scanner model, and stacked combinations.
func TestApplyFastPathDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	img := raster.New(160, 120)
	for i := range img.Pix {
		// Structured content with hard edges, like an emblem.
		x, y := i%160, i/160
		if (x/5+y/7)%2 == 0 {
			img.Pix[i] = 0
		} else {
			img.Pix[i] = byte(200 + rng.Intn(56))
		}
	}

	models := []Distortions{
		{},
		{RowJitterPx: 1.2},
		{RotationDeg: 0.3},
		{BarrelK: 0.002},
		{RotationDeg: -0.25, RowJitterPx: 0.8},
		{RotationDeg: 0.2, BarrelK: 0.0015, RowJitterPx: 1.0},
		{BlurRadius: 1},
		{Fade: 0.1},
		{Gradient: 0.4},
		{Noise: 5},
		{Fade: 0.08, Gradient: 0.3, Noise: 4},
		{Gradient: -0.4, Noise: 5}, // negative gradient still applies once noise runs the stage
		{Fade: -0.2, Noise: 3},     // negative fade is inert but must not skip the stage
		{DustSpecks: 20, Scratches: 2},
		Paper().Scanner,
		Microfilm().Scanner,
		CinemaFilm().Scanner,
	}
	for i, d := range models {
		d.Seed = int64(i)*31 + 5
		got := d.Apply(img)
		want := applyRef(d, img)
		if !raster.Equal(got, want) {
			t.Fatalf("model %d (%+v): fast Apply differs from reference in %d pixels",
				i, d, raster.DiffCount(got, want))
		}
		if &got.Pix[0] == &img.Pix[0] {
			t.Fatalf("model %d: Apply aliases its input", i)
		}
	}
}

// TestWriteZeroWriterMatchesApplyPath pins the Write fast path for
// distortion-free writers to the reference Apply-then-quantise path.
func TestWriteZeroWriterMatchesApplyPath(t *testing.T) {
	frame := raster.New(40, 30)
	for i := range frame.Pix {
		frame.Pix[i] = byte(i * 7)
	}
	for _, bitonal := range []bool{true, false} {
		p := Profile{Name: "z", FrameW: 40, FrameH: 30, ScanW: 40, ScanH: 30, WriteBitonal: bitonal}
		m := New(p)
		if err := m.Write([]*raster.Gray{frame, frame}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			d := p.Writer
			d.Seed = int64(i)*7919 + 1
			want := applyRef(d, frame)
			if bitonal {
				want = want.Threshold(want.OtsuThreshold())
			}
			if !raster.Equal(m.frames[i].gray(), want) {
				t.Fatalf("bitonal=%v frame %d: fast Write differs from reference", bitonal, i)
			}
		}
	}
	// A written frame must not alias the caller's image.
	p := Profile{Name: "z", FrameW: 40, FrameH: 30, ScanW: 40, ScanH: 30}
	m := New(p)
	if err := m.Write([]*raster.Gray{frame}); err != nil {
		t.Fatal(err)
	}
	if &m.frames[0].gray().Pix[0] == &frame.Pix[0] {
		t.Fatal("zero-writer Write stored the caller's pixel buffer")
	}
}

func TestIsZero(t *testing.T) {
	if !(Distortions{}).IsZero() || !(Distortions{Seed: 99}).IsZero() {
		t.Fatal("zero model (any seed) must be IsZero")
	}
	nonZero := []Distortions{
		{RotationDeg: 0.1}, {BarrelK: -0.001}, {RowJitterPx: 0.5},
		{BlurRadius: 1}, {Fade: 0.01}, {Gradient: 0.1}, {Noise: 1},
		{DustSpecks: 1}, {Scratches: 1},
	}
	for i, d := range nonZero {
		if d.IsZero() {
			t.Fatalf("model %d (%+v) reported zero", i, d)
		}
	}
}
