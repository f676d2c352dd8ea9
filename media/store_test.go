package media

import (
	"bytes"
	"runtime"
	"testing"

	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/raster"
)

// The stored-frame representation: a frame of at most two grey levels is
// kept as packed bits, anything else as pixels, and a scan reads either
// into the same bytes.

// perfbenchLikeProfile is perfbench's frame geometry: 120×90 modules at
// 3 px (390×300 pixels) with its scanner model.
func perfbenchLikeProfile() Profile {
	l := emblem.Layout{DataW: 120, DataH: 90, PxPerModule: 3}
	return Profile{
		Name:   "perfbench-like",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
		Scanner: Distortions{
			RotationDeg: 0.1, BlurRadius: 1, Noise: 2, DustSpecks: 2,
		},
	}
}

// bitonalWriterProfile is a shrunk paper profile whose writer adds noise
// and blur, so only its bitonal quantisation leaves two levels.
func bitonalWriterProfile() Profile {
	p := scanProfiles()[3] // shrunk paper: a bitonal writer
	p.Name = "bitonal-writer"
	p.Writer = Distortions{BlurRadius: 1, Noise: 20}
	return p
}

// testEmblems renders n clean emblems of distinct payloads at p's layout.
func testEmblems(t *testing.T, p Profile, n int) []*raster.Gray {
	t.Helper()
	var enc mocoder.Encoder
	out := make([]*raster.Gray, n)
	for i := range out {
		payload := make([]byte, mocoder.Capacity(p.Layout))
		for j := range payload {
			payload[j] = byte(i*7 + j*31)
		}
		img, err := enc.Encode(payload, emblem.Header{Kind: emblem.KindRaw, Index: uint16(i)}, p.Layout)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = img
	}
	return out
}

// gray returns the frame's pixels: the stored image itself, which must not
// be written, or packed bits unpacked into a fresh image.
func (f frame) gray() *raster.Gray {
	if f.bits != nil {
		return f.bits.UnpackInto(&raster.Gray{})
	}
	return f.pix
}

// pixelTwin returns m with every frame stored as pixels.
func pixelTwin(m *Medium) *Medium {
	out := &Medium{profile: m.profile, frames: make([]frame, len(m.frames))}
	for i, f := range m.frames {
		out.frames[i] = frame{pix: f.gray()}
	}
	return out
}

// TestStoredFrameBytes: on a clean volume every frame — written emblems,
// the reserved catalog and index placeholders, a filled catalog slot and
// a destroyed frame — is stored in ⌈W·H/8⌉ bytes of bits and no pixels,
// at perfbench's geometry, at Tiny() and behind a bitonal writer.
func TestStoredFrameBytes(t *testing.T) {
	for _, p := range []Profile{perfbenchLikeProfile(), Tiny(), bitonalWriterProfile()} {
		t.Run(p.Name, func(t *testing.T) {
			v := NewVolume(p, 5)
			if err := v.EnableCatalog(); err != nil {
				t.Fatal(err)
			}
			if err := v.EnableIndex(); err != nil {
				t.Fatal(err)
			}
			frames := testEmblems(t, p, 6)
			if err := v.Write(frames[:5]); err != nil {
				t.Fatal(err)
			}
			if err := v.FillCatalog(0, frames[5]); err != nil {
				t.Fatal(err)
			}
			if err := v.Destroy(1, 3); err != nil {
				t.Fatal(err)
			}
			want := (p.FrameW*p.FrameH + 7) / 8
			for s, sheet := range v.sheets {
				for i, f := range sheet.frames {
					if f.pix != nil || f.bits == nil || len(f.bits.Bits) != want {
						t.Fatalf("sheet %d frame %d: stored as pixels %v, bits %v, want %d bytes of bits",
							s, i, f.pix != nil, f.bits != nil, want)
					}
				}
			}
			if v.FrameCount() != 9 || v.Sheets() != 2 {
				t.Fatalf("%d frames on %d sheets, want 9 on 2", v.FrameCount(), v.Sheets())
			}
		})
	}
}

// TestDamagedFrameStaysPixels: Damage unpacks a packed frame before it
// distorts it, a grayscale result is stored as pixels, and the damaged
// frame scans exactly as the same damage stored as pixels does.
func TestDamagedFrameStaysPixels(t *testing.T) {
	p := Tiny()
	m := writeTestFrames(t, p, 2, 5)
	clean := m.frames[0].gray()
	d := Distortions{Seed: 11, BlurRadius: 1, Noise: 6, DustSpecks: 3}
	if err := m.Damage(0, d); err != nil {
		t.Fatal(err)
	}
	if f := m.frames[0]; f.bits != nil || f.pix == nil {
		t.Fatal("a damaged grayscale frame is not stored as pixels")
	}
	want := &Medium{profile: p, frames: []frame{{pix: d.Apply(clean)}}}
	got, err := m.ScanFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := want.ScanFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(got, ref) {
		t.Fatalf("damaged frame scans differently in %d pixels", raster.DiffCount(got, ref))
	}
	if m.frames[1].bits == nil {
		t.Fatal("damaging frame 0 unpacked frame 1")
	}
}

// TestDamageUnpacksIntoScratch: Damage unpacks a packed frame into the
// scratch its distortion renders through, so damaging a packed frame
// allocates no more bytes than damaging the same frame stored as pixels
// (an image of its own would add W·H), for a model with and without a
// warp or a blur, and for the zero model.
func TestDamageUnpacksIntoScratch(t *testing.T) {
	p := Tiny()
	m := writeTestFrames(t, p, 1, 3)
	twin := pixelTwin(m)
	for _, d := range []Distortions{
		{Seed: 1, BlurRadius: 1, Noise: 4},
		{Seed: 2, RotationDeg: 0.2, BlurRadius: 1, DustSpecks: 2},
		{Seed: 3, RowJitterPx: 0.4},
		{},
	} {
		allocated := func(m *Medium) uint64 {
			const runs = 4
			f := m.frames[0]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				m.frames[0] = f
				if err := m.Damage(0, d); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / runs
		}
		packed, pixels := allocated(m), allocated(twin)
		if packed > pixels+uint64(p.FrameW*p.FrameH/4) {
			t.Fatalf("%+v: damaging a packed frame allocates %d B, a pixel frame %d B", d, packed, pixels)
		}
		if !raster.Equal(m.frames[0].gray(), twin.frames[0].gray()) {
			t.Fatalf("%+v: a packed and a pixel frame damage differently", d)
		}
	}
}

// TestCloneSharesPackedFrames: a clone shares the original's packed bits,
// and destroying or damaging the clone's frames leaves the original's.
func TestCloneSharesPackedFrames(t *testing.T) {
	m := writeTestFrames(t, Tiny(), 3, 9)
	c := m.Clone()
	for i := range m.frames {
		if c.frames[i].bits != m.frames[i].bits || &c.frames[i].bits.Bits[0] != &m.frames[i].bits.Bits[0] {
			t.Fatalf("frame %d: the clone copied the packed bits", i)
		}
	}
	before := m.frames[0].gray()
	if err := c.Destroy(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Damage(1, Distortions{Seed: 2, Noise: 9}); err != nil {
		t.Fatal(err)
	}
	if m.frames[1].bits == nil || !raster.Equal(m.frames[0].gray(), before) {
		t.Fatal("changing the clone changed the original")
	}
}

// TestPackedScanMatchesPixels pins the packed read path: across the scan
// profile matrix (zero scanner with and without resampling, a bitonal
// scanner, the three built-in scanner models) and scanners without a
// warp, a scan of packed frames equals the scan of the same frames stored
// as pixels, through one scratch reused by both. Unpacking uses only
// scratch buffers the pixel scan uses too, except that a warp without a
// blur pass needs s.blur, and with a zero scanner it allocates nothing.
func TestPackedScanMatchesPixels(t *testing.T) {
	base := scanProfiles()[0] // zero scanner, scans at frame size
	noWarp := func(name string, d Distortions) Profile {
		p := base
		p.Name, p.Scanner = name, d
		return p
	}
	profiles := append(scanProfiles(),
		noWarp("blur-noise-dust", Distortions{BlurRadius: 1, Noise: 4, DustSpecks: 3}),
		noWarp("photometry", Distortions{Fade: 0.1, Gradient: 0.3, Noise: 3}),
		noWarp("warp-only", Distortions{RotationDeg: 0.3, RowJitterPx: 0.5}))
	buffers := func(s *ScanScratch) [3]bool { return [3]bool{s.out.Pix != nil, s.stage.Pix != nil, s.blur.Pix != nil} }
	var shared ScanScratch
	for _, p := range profiles {
		m := writeTestFrames(t, p, 3, 13)
		twin := pixelTwin(m)
		var packed, pixels ScanScratch
		for i := range m.frames {
			if m.frames[i].bits == nil {
				t.Fatalf("%s: frame %d not packed", p.Name, i)
			}
			ref, err := twin.ScanFrameInto(&pixels, i)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.ScanFrameInto(&packed, i); err != nil {
				t.Fatal(err)
			}
			got, err := m.ScanFrameInto(&shared, i)
			if err != nil {
				t.Fatal(err)
			}
			if !raster.Equal(got, ref) || !raster.Equal(&packed.out, ref) {
				t.Fatalf("%s: frame %d: packed scan differs in %d pixels", p.Name, i, raster.DiffCount(got, ref))
			}
		}
		if p.Scanner.BlurRadius > 0 || !p.Scanner.warps() {
			if got, want := buffers(&packed), buffers(&pixels); got != want {
				t.Fatalf("%s: scanning packed frames uses scratch buffers %v, pixel frames %v (out, stage, blur)", p.Name, got, want)
			}
		}
		if p.Scanner.IsZero() {
			if n := testing.AllocsPerRun(5, func() { _, _ = m.ScanFrameInto(&shared, 1) }); n != 0 {
				t.Fatalf("%s: a zero-scanner scan of a packed frame allocates %v times", p.Name, n)
			}
		}
	}
}

// TestBitonalWriterStoresWithoutCopy: a bitonal writer stores
// Pack(Threshold(f)) at f's Otsu threshold — or, behind a writer
// distortion, of the distorted frame — for frames of one, two and three
// grey levels, levels one apart included, and leaves the caller's image
// as it was. A clean emblem on Paper() is packed from the caller's image
// with its levels mapped through the threshold, so writing it allocates
// its bits and no thresholded copy: under W·H/4 bytes.
func TestBitonalWriterStoresWithoutCopy(t *testing.T) {
	p := scanProfiles()[3] // shrunk paper: a bitonal writer
	levels := func(vs ...byte) *raster.Gray {
		g := raster.New(p.FrameW, p.FrameH)
		for i := range g.Pix {
			g.Pix[i] = vs[i*7/5%len(vs)]
		}
		return g
	}
	frames := map[string]*raster.Gray{
		"one-level":           levels(200),
		"one-level-dark":      levels(3),
		"two-level":           levels(0, 255),
		"two-level-one-apart": levels(127, 128),
		"two-level-grey":      levels(40, 90),
		"three-level":         levels(0, 128, 255),
		"three-one-apart":     levels(127, 128, 129),
		"clean-emblem":        testEmblems(t, p, 1)[0],
	}
	for _, prof := range []Profile{p, bitonalWriterProfile()} {
		for name, f := range frames {
			before := f.Clone()
			src := f
			if d := prof.Writer; !d.IsZero() {
				d.Seed = 3*7919 + 1
				src = d.Apply(f)
			}
			want, ok := raster.Pack(src.Threshold(src.OtsuThreshold()))
			if !ok {
				t.Fatalf("%s/%s: a thresholded frame does not pack", prof.Name, name)
			}
			got := New(prof).written(3, f)
			if got.pix != nil || got.bits == nil || got.bits.Levels != want.Levels || !bytes.Equal(got.bits.Bits, want.Bits) {
				t.Fatalf("%s/%s: stored %+v levels, want Pack(Threshold(f)) with %v", prof.Name, name, got.bits, want.Levels)
			}
			if !raster.Equal(f, before) {
				t.Fatalf("%s/%s: writing changed the caller's image", prof.Name, name)
			}
		}
	}

	paper := Paper()
	img := testEmblems(t, paper, 1)[0]
	m := New(paper)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.Write([]*raster.Gray{img}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(paper.FrameW*paper.FrameH/4); got >= limit {
		t.Fatalf("writing one clean paper emblem allocated %d B, want under W·H/4 = %d B", got, limit)
	}
}

// TestDestroySharesOnePlaceholder: every frame Destroy fogs stores the
// medium's one placeholder, so losing a four-frame Paper() sheet allocates
// at most one placeholder of W·H/8 bytes, plus its small header. On a
// volume's sheet it is the placeholder the reserved positions hold, and a
// clone shares it.
func TestDestroySharesOnePlaceholder(t *testing.T) {
	paper := Paper()
	blank := raster.New(paper.FrameW, paper.FrameH)
	m := New(paper)
	if err := m.Write([]*raster.Gray{blank, blank, blank, blank}); err != nil {
		t.Fatal(err)
	}
	placeholder := uint64(paper.FrameW*paper.FrameH+7) / 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := VolumeOf(m).DestroySheet(0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, placeholder+1024; got > limit {
		t.Fatalf("DestroySheet on four paper frames allocated %d B, want at most one placeholder (%d B)", got, placeholder)
	}
	for i := range m.frames {
		if m.frames[i].bits != m.frames[0].bits {
			t.Fatalf("destroyed frame %d stores a placeholder of its own", i)
		}
	}

	v := NewVolume(Tiny(), 0)
	if err := v.EnableCatalog(); err != nil {
		t.Fatal(err)
	}
	img, _ := encodeFrame(t, Tiny(), 1, 0.5)
	if err := v.Write([]*raster.Gray{img, img}); err != nil {
		t.Fatal(err)
	}
	if err := v.Destroy(0, 2); err != nil {
		t.Fatal(err)
	}
	sheet, _ := v.Sheet(0)
	if sheet.frames[2].bits != sheet.frames[0].bits {
		t.Fatal("a destroyed frame does not share the sheet's reserved placeholder")
	}
	cv := v.Clone()
	if err := cv.Destroy(0, 1); err != nil {
		t.Fatal(err)
	}
	if cs, _ := cv.Sheet(0); cs.frames[1].bits != sheet.frames[0].bits {
		t.Fatal("a destroyed frame of a volume's clone does not share the placeholder")
	}
}
