package media

import (
	"fmt"
	"math/rand"

	"microlonys/raster"
)

// ScanScratch holds the image buffers a scan renders through: the
// returned scan, a staging buffer for the resample source, the blur
// intermediate, and the scanner-jitter walk. One scratch belongs to one
// scanning goroutine (the restore pipeline threads one per worker); a
// zero value is ready to use and sizes itself to the frames it sees.
type ScanScratch struct {
	out, stage, blur raster.Gray
	jitter           []float64
}

// ScanFrame captures one frame at the scanner's resolution and applies
// the scanner's distortion model: ScanFrameInto over a fresh scratch. The
// result is a copy of the image header, so the scratch's other buffers do
// not stay reachable from the caller's image.
func (m *Medium) ScanFrame(i int) (*raster.Gray, error) {
	img, err := m.ScanFrameInto(&ScanScratch{}, i)
	if err != nil {
		return nil, err
	}
	out := *img
	return &out, nil
}

// ScanFrameInto is the scan of frame i through the caller's scratch: the
// unpack, resample, distortion and threshold stages render into the
// scratch images instead of allocating full-resolution frames per scan.
// The returned image aliases the scratch and is valid until the next call.
func (m *Medium) ScanFrameInto(s *ScanScratch, i int) (*raster.Gray, error) {
	if i < 0 || i >= len(m.frames) {
		return nil, fmt.Errorf("media: frame %d out of range", i)
	}
	d := m.profile.Scanner
	d.Seed = scanSeed(d.Seed, i)
	resize := m.profile.ScanW != m.profile.FrameW || m.profile.ScanH != m.profile.FrameH
	cur := m.frames[i].pix // read-only: stored frames are never mutated here
	if b := m.frames[i].bits; b != nil {
		cur = s.unpack(b, !resize && d.warps())
	}
	if resize {
		cur.ResizeInto(&s.stage, m.profile.ScanW, m.profile.ScanH)
		cur = &s.stage
	}
	out := d.applyInto(s, cur)
	if m.profile.ScanBitonal {
		out.ThresholdInto(out, out.OtsuThreshold())
	}
	return out, nil
}

// applyInto applies the distortion model to src, rendering into the
// scratch: the result always lands in s.out, the geometry and blur stages
// ping-pong through the scratch buffers, and the photometry and damage
// stages mutate s.out in place. src is another image, which is never
// written, or a scratch buffer holding an unpacked frame: s.out when the
// model does not warp, which the stages then work on in place, or s.blur
// when it does. The stages run in a fixed order from one seeded random
// stream — geometry, blur, photometry, damage — which is the whole
// distortion model: Apply, ScanFrame and Reprint all run through here.
func (d Distortions) applyInto(s *ScanScratch, src *raster.Gray) *raster.Gray {
	if d.IsZero() {
		if src == &s.out {
			return src
		}
		return src.CopyInto(&s.out)
	}
	rng := rand.New(rand.NewSource(d.Seed))
	cur := src
	if d.warps() {
		s.jitter = rowJitterInto(rng, s.jitter, cur.H, d.RowJitterPx)
		d.warpGeometry(cur, &s.out, s.jitter)
		cur = &s.out
	}
	if d.BlurRadius > 0 {
		// The blur may write over its own source (cur can already be
		// s.out); the horizontal pass consumes it into s.blur first.
		cur = cur.BoxBlurInto(&s.out, &s.blur, d.BlurRadius)
	}
	if cur != &s.out {
		cur = cur.CopyInto(&s.out) // own the pixels before mutating stages
	}
	if d.Fade > 0 || d.Gradient > 0 || d.Noise > 0 {
		d.photometryInPlace(cur, rng)
	}
	if d.DustSpecks > 0 || d.Scratches > 0 {
		d.damageInPlace(cur, rng)
	}
	return cur
}

// unpack unpacks b into a scratch buffer that the same scan of pixels
// fills too and that applyInto may start from: s.blur when the first
// stage is a warp, which reads it before the blur pass reuses it, and
// s.out otherwise, where the resample into s.stage, the blur, the
// photometry and the zero model may all start.
func (s *ScanScratch) unpack(b *raster.Bitonal, warpFirst bool) *raster.Gray {
	if warpFirst {
		return b.UnpackInto(&s.blur)
	}
	return b.UnpackInto(&s.out)
}

// warps reports whether the model has a geometry stage.
func (d Distortions) warps() bool {
	return d.RotationDeg != 0 || d.BarrelK != 0 || d.RowJitterPx != 0
}
