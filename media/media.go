package media

import (
	"fmt"

	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/raster"
)

// Profile describes one analog medium: its frame geometry, the emblem
// layout used on it, and the distortion models of its writer and scanner.
// The built-in profiles mirror the equipment of the paper's evaluation.
type Profile struct {
	Name string

	// FrameW/H is the written frame in pixels; ScanW/H is the resolution
	// the scanner captures it back at.
	FrameW, FrameH int
	ScanW, ScanH   int

	// WriteBitonal quantises frames to pure black/white at write time
	// (laser printers and microfilm archive writers are bitonal devices);
	// ScanBitonal models scanners that deliver bitonal output.
	WriteBitonal bool
	ScanBitonal  bool

	Layout emblem.Layout

	// Writer distortions act once when the frame is written; Scanner
	// distortions act on every scan.
	Writer  Distortions
	Scanner Distortions
}

// FrameCapacity returns the payload bytes one emblem frame carries.
func (p Profile) FrameCapacity() int { return mocoder.Capacity(p.Layout) }

// FramesFor returns how many emblem frames a payload of n bytes needs
// (before outer-code parity).
func (p Profile) FramesFor(n int) int {
	c := p.FrameCapacity()
	return (n + c - 1) / c
}

// Paper models the paper experiment of §4: A4 pages printed at 600 dpi on
// a laser printer (4800×6800 usable pixels after margins; 6 px modules)
// and scanned back at the same resolution in grayscale.
func Paper() Profile {
	l := emblem.Layout{DataW: 790, DataH: 1123, PxPerModule: 6}
	return Profile{
		Name:   "paper-600dpi-a4",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		WriteBitonal: true,
		Layout:       l,
		Scanner: Distortions{
			RotationDeg: 0.25,
			RowJitterPx: 1.2,
			BlurRadius:  1,
			Fade:        0.08,
			Gradient:    0.3,
			Noise:       5,
			DustSpecks:  40,
		},
	}
}

// Microfilm models the §4 microfilm experiment: an archive writer exposing
// 3888×5498 bitonal frames on 16 mm film (5 px modules), scanned back
// bitonal at roughly 5000×7000 — with film fading, dust and scratches.
func Microfilm() Profile {
	l := emblem.Layout{DataW: 767, DataH: 1089, PxPerModule: 5}
	return Profile{
		Name:   "microfilm-16mm",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: 5000, ScanH: 7072,
		WriteBitonal: true,
		ScanBitonal:  true,
		Layout:       l,
		Scanner: Distortions{
			RotationDeg: 0.2,
			BarrelK:     0.0015,
			RowJitterPx: 1.0,
			BlurRadius:  1,
			Fade:        0.12,
			Noise:       4,
			DustSpecks:  60,
			Scratches:   2,
		},
	}
}

// CinemaFilm models the §4 cinema-film experiment: an Arrilaser-style
// recorder shooting 2K full-aperture frames (2048×1556, 2 px modules),
// scanned in grayscale at 4K (4096×3120). Cinema scanners produce the
// sharpest, lowest-distortion images of the three media.
func CinemaFilm() Profile {
	l := emblem.Layout{DataW: 1014, DataH: 768, PxPerModule: 2}
	return Profile{
		Name:   "cinema-35mm-2k",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: 4096, ScanH: 3120,
		Layout: l,
		Writer: Distortions{BlurRadius: 0},
		Scanner: Distortions{
			RotationDeg: 0.1,
			RowJitterPx: 0.4,
			BlurRadius:  1,
			Fade:        0.05,
			Noise:       3,
			DustSpecks:  10,
		},
	}
}

// Tiny is a small development profile: the same pipeline and distortion
// model as the real media at a fraction of the pixels, so demos, smoke
// tests and service harnesses run in milliseconds per frame. Not
// calibrated against any physical medium — never use it for capacity or
// recovery studies.
func Tiny() Profile {
	l := emblem.Layout{DataW: 100, DataH: 80, PxPerModule: 4}
	return Profile{
		Name:   "tiny-dev",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
		Scanner: Distortions{
			RotationDeg: 0.15,
			BlurRadius:  1,
			Noise:       3,
			DustSpecks:  4,
		},
	}
}

// ProfileNames lists the short names ProfileByName accepts.
const ProfileNames = "paper, microfilm, cinema, tiny"

// ProfileByName returns the profile a command line names: paper,
// microfilm, cinema or tiny.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "paper":
		return Paper(), nil
	case "microfilm":
		return Microfilm(), nil
	case "cinema":
		return CinemaFilm(), nil
	case "tiny":
		return Tiny(), nil
	}
	return Profile{}, fmt.Errorf("unknown profile %q (want one of %s)", name, ProfileNames)
}

// Medium is a simulated physical artifact: a stack of written frames that
// can be damaged, destroyed and scanned back.
type Medium struct {
	profile Profile
	frames  []*raster.Gray
}

// New returns an empty medium for the profile.
func New(p Profile) *Medium { return &Medium{profile: p} }

// Profile returns the medium's profile.
func (m *Medium) Profile() Profile { return m.profile }

// Write appends frames to the medium, applying writer-side quantisation
// and distortion. Frames must match the profile's frame size.
func (m *Medium) Write(frames []*raster.Gray) error {
	writerZero := m.profile.Writer.IsZero()
	for i, f := range frames {
		if f.W != m.profile.FrameW || f.H != m.profile.FrameH {
			return fmt.Errorf("media: frame %d is %dx%d, profile %q wants %dx%d",
				i, f.W, f.H, m.profile.Name, m.profile.FrameW, m.profile.FrameH)
		}
		var out *raster.Gray
		switch {
		case writerZero && m.profile.WriteBitonal:
			// No writer distortion (all built-in profiles): quantisation
			// allocates the stored frame itself, so the distortion pass's
			// intermediate clone is skipped. Threshold(Clone(f)) and
			// Threshold(f) are the same bytes.
			out = f.Threshold(f.OtsuThreshold())
		case writerZero:
			out = f.Clone() // the medium owns its pixels
		default:
			d := m.profile.Writer
			d.Seed = int64(len(m.frames))*7919 + 1
			out = d.Apply(f)
			if m.profile.WriteBitonal {
				out = out.Threshold(out.OtsuThreshold())
			}
		}
		m.frames = append(m.frames, out)
	}
	return nil
}

// WriteAt replaces frame i with a freshly written image, applying the
// same writer-side quantisation and distortion Write would have at that
// position (the writer seed depends only on the frame index). This is
// the catalog back-patch hook: Volume reserves the first slot of each
// sheet when the sheet is cut and fills it here once the whole volume
// inventory is known — the replacement is byte-identical to having
// written the image in sequence.
func (m *Medium) WriteAt(i int, f *raster.Gray) error {
	if i < 0 || i >= len(m.frames) {
		return fmt.Errorf("media: frame %d out of range", i)
	}
	if f.W != m.profile.FrameW || f.H != m.profile.FrameH {
		return fmt.Errorf("media: frame is %dx%d, profile %q wants %dx%d",
			f.W, f.H, m.profile.Name, m.profile.FrameW, m.profile.FrameH)
	}
	var out *raster.Gray
	switch {
	case m.profile.Writer.IsZero() && m.profile.WriteBitonal:
		out = f.Threshold(f.OtsuThreshold())
	case m.profile.Writer.IsZero():
		out = f.Clone()
	default:
		d := m.profile.Writer
		d.Seed = int64(i)*7919 + 1
		out = d.Apply(f)
		if m.profile.WriteBitonal {
			out = out.Threshold(out.OtsuThreshold())
		}
	}
	m.frames[i] = out
	return nil
}

// Truncate discards every frame from index n on — the fault model of a
// scan run that stopped early (jammed feeder, cut reel). Truncating
// beyond the end is a no-op.
func (m *Medium) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	if n < len(m.frames) {
		m.frames = m.frames[:n]
	}
}

// FrameCount returns the number of written frames.
func (m *Medium) FrameCount() int { return len(m.frames) }

// Clone returns an independent medium holding the same frames. The clone
// shares frame pixel buffers with the original — safe because every
// mutating API (Write, Damage, Destroy) replaces a frame's image rather
// than editing its pixels in place — so damaging the clone never touches
// the original. The damage-campaign harness clones one archived medium
// per randomized trial instead of re-archiving.
func (m *Medium) Clone() *Medium {
	return &Medium{profile: m.profile, frames: append([]*raster.Gray(nil), m.frames...)}
}

// SetScanner replaces the medium's scanner distortion model — the
// campaign harness's severity and per-trial-seed hook. The stored frames
// are untouched; only future scans see the new model.
func (m *Medium) SetScanner(d Distortions) { m.profile.Scanner = d }

// Reprint plays one generational copy (scan→print→scan loses quality each
// round): every frame is scanned through the current scanner model,
// resampled back to the profile's frame geometry and written — with the
// writer's quantisation and distortion — onto a fresh medium. Chaining
// Reprint models the photocopy-of-a-photocopy degradation the campaign
// harness's generations axis sweeps; vary the scanner Seed between rounds
// so each generation draws fresh noise.
func (m *Medium) Reprint() (*Medium, error) {
	out := New(m.profile)
	buf := make([]*raster.Gray, 1)
	for i := range m.frames {
		img, err := m.ScanFrame(i)
		if err != nil {
			return nil, err
		}
		if img.W != m.profile.FrameW || img.H != m.profile.FrameH {
			img = img.Resize(m.profile.FrameW, m.profile.FrameH)
		}
		buf[0] = img
		if err := out.Write(buf); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scanSeed derives the per-frame scanner distortion seed. A zero profile
// seed — every built-in profile — reproduces the historical per-index
// stream bit-for-bit; a non-zero Scanner.Seed (the campaign harness's
// randomized-trial hook) mixes into the per-frame value so each trial
// draws an independent but deterministic noise pattern.
func scanSeed(base int64, i int) int64 {
	s := int64(i)*104729 + 7
	if base != 0 {
		s ^= base * -7046029254386353131 // odd 64-bit mixing constant
		s *= 2685821657736338717
	}
	return s
}

// Damage applies additional distortion to a stored frame, modelling decay
// or mishandling after writing.
func (m *Medium) Damage(i int, d Distortions) error {
	if i < 0 || i >= len(m.frames) {
		return fmt.Errorf("media: frame %d out of range", i)
	}
	m.frames[i] = d.Apply(m.frames[i])
	return nil
}

// Destroy makes a frame unreadable altogether (torn page, burnt frame) —
// the whole-emblem failure the outer code exists for.
func (m *Medium) Destroy(i int) error {
	if i < 0 || i >= len(m.frames) {
		return fmt.Errorf("media: frame %d out of range", i)
	}
	fogged := raster.New(m.profile.FrameW, m.profile.FrameH)
	for j := range fogged.Pix {
		fogged.Pix[j] = 128
	}
	m.frames[i] = fogged
	return nil
}

// ScanFrame captures one frame at the scanner's resolution and applies
// the scanner's distortion model.
func (m *Medium) ScanFrame(i int) (*raster.Gray, error) {
	if i < 0 || i >= len(m.frames) {
		return nil, fmt.Errorf("media: frame %d out of range", i)
	}
	img := m.frames[i]
	if m.profile.ScanW != m.profile.FrameW || m.profile.ScanH != m.profile.FrameH {
		img = img.Resize(m.profile.ScanW, m.profile.ScanH)
	}
	d := m.profile.Scanner
	d.Seed = scanSeed(d.Seed, i)
	switch {
	case !d.IsZero():
		img = d.Apply(img)
	case img == m.frames[i]:
		// Distortion-free scanner at native resolution: Apply would only
		// clone — do just that, so the caller never sees stored pixels.
		img = img.Clone()
	}
	if m.profile.ScanBitonal {
		img = img.Threshold(img.OtsuThreshold())
	}
	return img, nil
}

// Scan captures every frame in order.
func (m *Medium) Scan() ([]*raster.Gray, error) {
	out := make([]*raster.Gray, len(m.frames))
	for i := range m.frames {
		img, err := m.ScanFrame(i)
		if err != nil {
			return nil, err
		}
		out[i] = img
	}
	return out, nil
}
