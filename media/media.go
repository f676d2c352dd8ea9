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
	frames  []frame
}

// frame is one stored frame. A frame of at most two grey levels — every
// clean emblem, every frame of a bitonal writer, fogged placeholders and
// destroyed frames — is kept as packed bits at an eighth of its pixel
// bytes; anything else (a damaged or reprinted grayscale frame) as pixels.
// Either is never written after it is stored: scans read it concurrently
// and clones share it.
type frame struct {
	bits *raster.Bitonal
	pix  *raster.Gray
}

// stored keeps img, which the medium owns from here on, packed when it
// has at most two grey levels.
func stored(img *raster.Gray) frame {
	if b, ok := raster.Pack(img); ok {
		return frame{bits: b}
	}
	return frame{pix: img}
}

// fogged is the stored form of an unreadable frame: uniform mid-grey, one
// level, so it is packed without rendering its pixels.
func fogged(p Profile) frame {
	return frame{bits: &raster.Bitonal{
		W: p.FrameW, H: p.FrameH, Levels: [2]byte{128, 128},
		Bits: make([]byte, (p.FrameW*p.FrameH+7)/8),
	}}
}

// New returns an empty medium for the profile.
func New(p Profile) *Medium { return &Medium{profile: p} }

// Profile returns the medium's profile.
func (m *Medium) Profile() Profile { return m.profile }

// Write appends frames to the medium, applying writer-side quantisation
// and distortion. Frames must match the profile's frame size.
func (m *Medium) Write(frames []*raster.Gray) error {
	for i, f := range frames {
		if f.W != m.profile.FrameW || f.H != m.profile.FrameH {
			return fmt.Errorf("media: frame %d is %dx%d, profile %q wants %dx%d",
				i, f.W, f.H, m.profile.Name, m.profile.FrameW, m.profile.FrameH)
		}
		m.frames = append(m.frames, m.written(len(m.frames), f))
	}
	return nil
}

// WriteAt replaces frame i with a freshly written image, applying the
// same writer-side quantisation and distortion Write would have at that
// position (the writer seed depends only on the frame index), so the
// replacement is byte-identical to having written the image in sequence.
// It fills the positions a Volume reserves: a group's run (ReserveGroup)
// and each sheet's catalog and index slots (FillCatalog, FillIndex). It
// stores only frame i, so writes to distinct positions may run
// concurrently while nothing appends to the medium.
func (m *Medium) WriteAt(i int, f *raster.Gray) error {
	if i < 0 || i >= len(m.frames) {
		return fmt.Errorf("media: frame %d out of range", i)
	}
	if f.W != m.profile.FrameW || f.H != m.profile.FrameH {
		return fmt.Errorf("media: frame is %dx%d, profile %q wants %dx%d",
			f.W, f.H, m.profile.Name, m.profile.FrameW, m.profile.FrameH)
	}
	m.frames[i] = m.written(i, f)
	return nil
}

// written returns frame f as the writer stores it at index i: the writer
// distortion, seeded by the index, then bitonal quantisation when the
// profile has it, packed when the result has at most two grey levels. The
// result never aliases f — the medium owns its frames. A distortion-free
// writer (every built-in profile) skips the distortion pass, and a clean
// emblem packs straight from the caller's image without a copy; a bitonal
// writer quantises the distortion's private copy in place, or else maps
// the packed levels of a clean emblem through the threshold.
func (m *Medium) written(i int, f *raster.Gray) frame {
	out := f
	if d := m.profile.Writer; !d.IsZero() {
		d.Seed = int64(i)*7919 + 1
		out = d.Apply(f)
	}
	if m.profile.WriteBitonal {
		t := out.OtsuThreshold()
		if out != f {
			return stored(out.ThresholdInto(out, t))
		}
		if b, ok := raster.Pack(f); ok {
			return frame{bits: thresholdLevels(b, t)}
		}
		return stored(f.Threshold(t))
	}
	st := stored(out)
	if st.pix == f {
		st.pix = f.Clone()
	}
	return st
}

// thresholdLevels quantises packed frame b at t as Threshold does its
// pixels: each level becomes 0 below t and 255 otherwise. When both become
// the same value the frame has one level, so its bits are cleared.
func thresholdLevels(b *raster.Bitonal, t byte) *raster.Bitonal {
	for k, l := range b.Levels {
		b.Levels[k] = 255
		if l < t {
			b.Levels[k] = 0
		}
	}
	if b.Levels[0] == b.Levels[1] {
		clear(b.Bits)
	}
	return b
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
// shares stored frames (bits or pixels) with the original — safe because
// every mutating API (Write, Damage, Destroy) replaces a stored frame
// rather than editing it in place — so damaging the clone never touches
// the original. The damage-campaign harness clones one archived medium
// per randomized trial instead of re-archiving.
func (m *Medium) Clone() *Medium {
	return &Medium{profile: m.profile, frames: append([]frame(nil), m.frames...)}
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
// so each generation draws fresh noise. It is Volume.Reprint of the
// one-sheet volume: the frames scan as frame-slot tasks.
func (m *Medium) Reprint() (*Medium, error) {
	v, err := VolumeOf(m).Reprint()
	if err != nil {
		return nil, err
	}
	return v.sheets[0], nil
}

// reprintFrame scans frame i through s and stores its reprint at index i
// of out. The scanner seed and the writer seed depend only on i, so the
// frames may reprint in any order. written packs or copies what it
// stores, so the scratch is free again on return.
func (m *Medium) reprintFrame(s *ScanScratch, out *Medium, i int) error {
	img, err := m.ScanFrameInto(s, i)
	if err != nil {
		return err
	}
	if img.W != m.profile.FrameW || img.H != m.profile.FrameH {
		img = img.Resize(m.profile.FrameW, m.profile.FrameH)
	}
	out.frames[i] = out.written(i, img)
	return nil
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
// or mishandling after writing: Apply, with a packed frame unpacked into
// the scratch the distortion renders through rather than into an image
// of its own. The damaged frame is stored like any other, as pixels
// unless it still has at most two grey levels.
func (m *Medium) Damage(i int, d Distortions) error {
	if i < 0 || i >= len(m.frames) {
		return fmt.Errorf("media: frame %d out of range", i)
	}
	var s ScanScratch
	src := m.frames[i].pix
	if b := m.frames[i].bits; b != nil {
		src = s.unpack(b, d.warps())
	}
	out := *d.applyInto(&s, src) // the header alone, as in Apply
	m.frames[i] = stored(&out)
	return nil
}

// Destroy makes a frame unreadable altogether (torn page, burnt frame) —
// the whole-emblem failure the outer code exists for.
func (m *Medium) Destroy(i int) error {
	if i < 0 || i >= len(m.frames) {
		return fmt.Errorf("media: frame %d out of range", i)
	}
	m.frames[i] = fogged(m.profile)
	return nil
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
