package media

import (
	"testing"

	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/raster"
)

// scanProfiles are the ScanFrameInto coverage matrix: native-resolution
// grayscale, rescaling, bitonal scanners, distortion-free scanners, and
// the three built-in profiles (shrunk layouts keep the test fast while
// preserving each profile's distortion model and scan geometry).
func scanProfiles() []Profile {
	shrink := func(p Profile) Profile {
		l := emblem.Layout{DataW: 60, DataH: 48, PxPerModule: p.Layout.PxPerModule}
		scale := func(scan, frame int) int { return l.ImageW() * scan / frame }
		p.ScanW = scale(p.ScanW, p.FrameW)
		p.ScanH = l.ImageH() * p.ScanH / p.FrameH
		p.FrameW, p.FrameH = l.ImageW(), l.ImageH()
		p.Layout = l
		return p
	}
	l := emblem.Layout{DataW: 60, DataH: 48, PxPerModule: 3}
	zero := Profile{
		Name:   "zero-scanner",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
	}
	zeroResize := zero
	zeroResize.Name = "zero-scanner-resized"
	zeroResize.ScanW, zeroResize.ScanH = l.ImageW()*2, l.ImageH()*2
	zeroBitonal := zero
	zeroBitonal.Name = "zero-scanner-bitonal"
	zeroBitonal.ScanBitonal = true
	return []Profile{
		zero, zeroResize, zeroBitonal,
		shrink(Paper()), shrink(Microfilm()), shrink(CinemaFilm()),
	}
}

func writeTestFrames(t *testing.T, p Profile, n int, seed int64) *Medium {
	t.Helper()
	m := New(p)
	var enc mocoder.Encoder
	payload := make([]byte, mocoder.Capacity(p.Layout))
	for i := range payload {
		payload[i] = byte(int(seed) + i*31)
	}
	for i := 0; i < n; i++ {
		img, err := enc.Encode(payload, emblem.Header{Kind: emblem.KindRaw, Index: uint16(i)}, p.Layout)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Write([]*raster.Gray{img}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestScanFrameIntoMatchesScanFrame pins the scratch-rendering scan to
// ScanFrame across the profile matrix — resize, every distortion model,
// bitonal quantisation — with one scratch reused for all frames of all
// profiles, so stale state or stale sizing would be caught. The written
// frames are stored packed; their pixel twins run through the same
// checks, and a scan of a frame stored as pixels must neither alias nor
// change it.
func TestScanFrameIntoMatchesScanFrame(t *testing.T) {
	var s ScanScratch
	for _, p := range scanProfiles() {
		packed := writeTestFrames(t, p, 3, 7)
		for _, m := range []*Medium{packed, pixelTwin(packed)} {
			stored := make([]*raster.Gray, len(m.frames))
			for i, f := range m.frames {
				if f.pix != nil {
					stored[i] = f.pix.Clone()
				}
			}
			for i := 0; i < m.FrameCount(); i++ {
				want, err := m.ScanFrame(i)
				if err != nil {
					t.Fatalf("%s: ScanFrame(%d): %v", p.Name, i, err)
				}
				got, err := m.ScanFrameInto(&s, i)
				if err != nil {
					t.Fatalf("%s: ScanFrameInto(%d): %v", p.Name, i, err)
				}
				if !raster.Equal(got, want) {
					t.Fatalf("%s: frame %d: ScanFrameInto differs from ScanFrame in %d pixels",
						p.Name, i, raster.DiffCount(got, want))
				}
				if f := m.frames[i]; f.pix != nil && &got.Pix[0] == &f.pix.Pix[0] {
					t.Fatalf("%s: frame %d: scan aliases the stored frame", p.Name, i)
				}
			}
			for i, f := range m.frames {
				if f.pix != nil && !raster.Equal(f.pix, stored[i]) {
					t.Fatalf("%s: frame %d: scanning changed the stored frame", p.Name, i)
				}
			}
			if _, err := m.ScanFrameInto(&s, -1); err == nil {
				t.Fatalf("%s: negative index accepted", p.Name)
			}
			if _, err := m.ScanFrameInto(&s, m.FrameCount()); err == nil {
				t.Fatalf("%s: out-of-range index accepted", p.Name)
			}
		}
	}
}

// TestScanFrameIntoReuseAcrossSizes alternates scans between profiles
// whose frame and scan sizes differ — the scratch must resize safely in
// both directions, repeatedly.
func TestScanFrameIntoReuseAcrossSizes(t *testing.T) {
	profiles := scanProfiles()
	media := make([]*Medium, len(profiles))
	for i, p := range profiles {
		media[i] = writeTestFrames(t, p, 1, int64(i)+11)
	}
	var s ScanScratch
	for round := 0; round < 3; round++ {
		for i, m := range media {
			want, err := m.ScanFrame(0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.ScanFrameInto(&s, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !raster.Equal(got, want) {
				t.Fatalf("round %d profile %s: scratch reuse broke the scan", round, profiles[i].Name)
			}
		}
	}
}

// TestVolumeScanFrameInto pins the volume-level scratch scan to the
// volume ScanFrame across sheet boundaries.
func TestVolumeScanFrameInto(t *testing.T) {
	p := scanProfiles()[3] // shrunk paper: resize + full scanner model
	v := NewVolume(p, 2)
	var enc mocoder.Encoder
	payload := make([]byte, mocoder.Capacity(p.Layout))
	for i := 0; i < 5; i++ {
		img, err := enc.Encode(payload, emblem.Header{Kind: emblem.KindRaw, Index: uint16(i)}, p.Layout)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Write([]*raster.Gray{img}); err != nil {
			t.Fatal(err)
		}
	}
	var s ScanScratch
	for i := 0; i < v.FrameCount(); i++ {
		want, err := v.ScanFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.ScanFrameInto(&s, i)
		if err != nil {
			t.Fatal(err)
		}
		if !raster.Equal(got, want) {
			t.Fatalf("frame %d: volume ScanFrameInto differs", i)
		}
	}
	if _, err := v.ScanFrameInto(&s, v.FrameCount()); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func BenchmarkScanFrame(b *testing.B) {
	l := emblem.Layout{DataW: 120, DataH: 90, PxPerModule: 3}
	p := Profile{
		Name:   "bench",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
		Scanner: Distortions{
			RotationDeg: 0.1, BlurRadius: 1, Noise: 2, DustSpecks: 2,
		},
	}
	m := New(p)
	var enc mocoder.Encoder
	payload := make([]byte, mocoder.Capacity(l))
	img, err := enc.Encode(payload, emblem.Header{Kind: emblem.KindRaw}, l)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Write([]*raster.Gray{img}); err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.ScanFrame(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		var s ScanScratch
		if _, err := m.ScanFrameInto(&s, 0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ScanFrameInto(&s, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
