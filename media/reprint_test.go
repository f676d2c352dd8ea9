package media

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"microlonys/raster"
)

// Reprint scans every frame as a frame-slot task. These tests pin it to
// the serial formulation below, frame for frame, across the scanner and
// writer paths a generational copy can take.

// reprintRef is the serial Medium.Reprint the frame-slot tasks replace:
// every frame scanned in index order through one scratch, resampled to
// the frame size when the scan is not, and appended with Write.
func reprintRef(m *Medium) (*Medium, error) {
	out := New(m.profile)
	var s ScanScratch // Write copies what it stores, so one scratch serves every frame
	buf := make([]*raster.Gray, 1)
	for i := range m.frames {
		img, err := m.ScanFrameInto(&s, i)
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

// volumeReprintRef reprints every sheet of v with reprintRef.
func volumeReprintRef(v *Volume) (*Volume, error) {
	out := &Volume{profile: v.profile, sheetFrames: v.sheetFrames, catalog: v.catalog, index: v.index}
	for _, m := range v.sheets {
		rm, err := reprintRef(m)
		if err != nil {
			return nil, err
		}
		out.sheets = append(out.sheets, rm)
	}
	return out, nil
}

// reprintProfile is a small grayscale medium with the full scanner model.
// Reprint never decodes, so its frames need no emblem layout.
func reprintProfile() Profile {
	return Profile{
		Name:   "reprint",
		FrameW: 64, FrameH: 48,
		ScanW: 64, ScanH: 48,
		Scanner: Distortions{
			RotationDeg: 0.2, RowJitterPx: 0.8, BlurRadius: 1,
			Fade: 0.08, Noise: 4, DustSpecks: 6,
		},
	}
}

// reprintVolume writes n distinct seeded noise frames onto a volume of
// sheetFrames-frame sheets, reserving the catalog and index slots and
// filling the first sheet's when asked.
func reprintVolume(t *testing.T, p Profile, sheetFrames, n int, reserve bool) *Volume {
	t.Helper()
	v := NewVolume(p, sheetFrames)
	if reserve {
		if err := v.EnableCatalog(); err != nil {
			t.Fatal(err)
		}
		if err := v.EnableIndex(); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(int64(n)))
	frame := func() *raster.Gray {
		img := raster.New(p.FrameW, p.FrameH)
		rng.Read(img.Pix)
		return img
	}
	for i := 0; i < n; i++ {
		if err := v.Write([]*raster.Gray{frame()}); err != nil {
			t.Fatal(err)
		}
	}
	if reserve {
		if err := v.FillCatalog(0, frame()); err != nil {
			t.Fatal(err)
		}
		if err := v.FillIndex(0, frame()); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// sameVolume reports the first difference between two volumes: shape,
// reservation, profile or any stored frame's pixels.
func sameVolume(got, want *Volume) error {
	if got.sheetFrames != want.sheetFrames || got.catalog != want.catalog || got.index != want.index ||
		got.profile != want.profile || len(got.sheets) != len(want.sheets) {
		return fmt.Errorf("volume shape or profile differs")
	}
	for s, wm := range want.sheets {
		gm := got.sheets[s]
		if gm.profile != wm.profile || len(gm.frames) != len(wm.frames) {
			return fmt.Errorf("sheet %d: %d frames, want %d", s, len(gm.frames), len(wm.frames))
		}
		for i := range wm.frames {
			gf, wf := gm.frames[i].gray(), wm.frames[i].gray()
			if gf.W != wf.W || gf.H != wf.H || !bytes.Equal(gf.Pix, wf.Pix) {
				return fmt.Errorf("sheet %d frame %d: pixels differ", s, i)
			}
		}
	}
	return nil
}

// TestReprintMatchesSerial: Volume.Reprint and Medium.Reprint equal the
// serial reprint pixel for pixel, frame for frame, at GOMAXPROCS 1 and 4,
// on a multi-sheet volume with catalog and index slots, a bitonal writer
// and scanner with a writer distortion, a resampled scan, a non-zero
// scanner seed with a grayscale writer distortion, and two chained
// generations drawing fresh seeds.
func TestReprintMatchesSerial(t *testing.T) {
	p := reprintProfile()
	bitonal := p
	bitonal.WriteBitonal, bitonal.ScanBitonal = true, true
	bitonal.Writer = Distortions{BlurRadius: 1, Noise: 30} // enough noise to move the threshold's cut
	resampled := p
	resampled.ScanW, resampled.ScanH = p.FrameW*3/2, p.FrameH*3/2
	seeded := p
	seeded.Scanner.Seed = 0x5eed
	seeded.Writer = Distortions{Noise: 2}

	cases := []struct {
		name        string
		v           *Volume
		generations int
	}{
		{"multi-sheet-catalog-index", reprintVolume(t, p, 7, 12, true), 1},
		{"bitonal-writer-and-scanner", reprintVolume(t, bitonal, 0, 6, false), 1},
		{"resampled-scan", reprintVolume(t, resampled, 0, 6, false), 1},
		{"scanner-seed", reprintVolume(t, seeded, 4, 7, false), 1},
		{"two-generations", reprintVolume(t, p, 5, 9, true), 2},
	}
	// Each generation scans with its own seed, as the campaign's
	// generations axis does.
	chain := func(v *Volume, generations int, reprint func(*Volume) (*Volume, error)) (*Volume, error) {
		for g := 0; g < generations; g++ {
			v = v.Clone()
			sc := v.profile.Scanner
			sc.Seed += int64(g)
			v.SetScanner(sc)
			var err error
			if v, err = reprint(v); err != nil {
				return nil, err
			}
		}
		return v, nil
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := chain(tc.v, tc.generations, volumeReprintRef)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got, err := chain(tc.v, tc.generations, (*Volume).Reprint)
				var sheet *Medium
				if err == nil && tc.generations == 1 {
					sheet, err = tc.v.sheets[len(tc.v.sheets)-1].Reprint()
				}
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameVolume(got, want); err != nil {
					t.Fatalf("GOMAXPROCS %d: Volume.Reprint: %v", procs, err)
				}
				if sheet != nil {
					last := &Volume{profile: p, sheets: []*Medium{sheet}}
					ref := &Volume{profile: p, sheets: want.sheets[len(want.sheets)-1:]}
					if err := sameVolume(last, ref); err != nil {
						t.Fatalf("GOMAXPROCS %d: Medium.Reprint: %v", procs, err)
					}
				}
			}
		})
	}
}

// TestReprintPanicOnCaller: a panic inside one frame's scan is re-raised
// on Reprint's caller goroutine, carrying the stack of the task that
// panicked, and no goroutine of the reprint outlives the call.
func TestReprintPanicOnCaller(t *testing.T) {
	v := reprintVolume(t, reprintProfile(), 4, 10, false)
	m := v.sheets[1]
	m.frames[2] = frame{pix: &raster.Gray{W: m.profile.FrameW, H: m.profile.FrameH}} // no pixels: the scan reads past them

	before := runtime.NumGoroutine()
	var r any
	func() {
		defer func() { r = recover() }()
		_, _ = v.Reprint()
	}()
	if r == nil {
		t.Fatal("Reprint returned without panicking")
	}
	if msg := fmt.Sprint(r); !strings.Contains(msg, "index out of range") || !strings.Contains(msg, "reprintFrame") {
		t.Fatalf("re-raised panic lacks the scan's cause or stack:\n%s", msg)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
