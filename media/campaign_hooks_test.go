package media

import (
	"math"
	"testing"

	"microlonys/raster"
)

// The damage-campaign hooks: Distortions.Scale, Medium/Volume Clone,
// SetScanner, Reprint, and the per-trial scanner seed mixing.

func TestScaleIdentityAndZero(t *testing.T) {
	d := Paper().Scanner
	d.Seed = 42
	if got := d.Scale(1); got != d {
		t.Fatalf("Scale(1) changed the model: %+v vs %+v", got, d)
	}
	if z := d.Scale(0); !z.IsZero() {
		t.Fatalf("Scale(0) is not the zero model: %+v", z)
	}
	if z := d.Scale(-3); !z.IsZero() {
		t.Fatal("negative scale must clamp to zero severity")
	}
}

func TestScaleProportionsAndClamps(t *testing.T) {
	d := Distortions{RotationDeg: 0.2, BarrelK: 0.001, RowJitterPx: 1.0,
		BlurRadius: 1, Fade: 0.6, Gradient: 0.3, Noise: 4, DustSpecks: 10,
		DustMaxRadius: 5, Scratches: 2, Seed: 9}
	s := d.Scale(2)
	if s.RotationDeg != 0.4 || s.RowJitterPx != 2.0 || s.Noise != 8 ||
		s.DustSpecks != 20 || s.Scratches != 4 || s.BlurRadius != 2 {
		t.Fatalf("Scale(2): %+v", s)
	}
	if s.Fade != 1 {
		t.Fatalf("Fade must clamp at 1, got %v", s.Fade)
	}
	if s.Seed != 9 || s.DustMaxRadius != 5 {
		t.Fatal("Seed and DustMaxRadius must pass through unscaled")
	}
	if half := d.Scale(0.5); half.BlurRadius != 1 || half.DustSpecks != 5 {
		t.Fatalf("Scale(0.5) counts: %+v", half)
	}
}

// Writing Scanner.Seed must change every frame's noise draw while staying
// deterministic, and ScanFrame / ScanFrameInto must agree under it (both
// paths share scanSeed).
func TestScannerSeedHook(t *testing.T) {
	p := tinyProfile()
	m := New(p)
	img, _ := encodeFrame(t, p, 1, 0.5)
	if err := m.Write([]*raster.Gray{img}); err != nil {
		t.Fatal(err)
	}

	base, err := m.ScanFrame(0)
	if err != nil {
		t.Fatal(err)
	}

	d := p.Scanner
	d.Seed = 1234
	m.SetScanner(d)
	a, err := m.ScanFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	if raster.Equal(base, a) {
		t.Fatal("non-zero scanner seed produced the zero-seed noise")
	}
	b, err := m.ScanFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(a, b) {
		t.Fatal("same scanner seed produced different scans")
	}
	var sc ScanScratch
	c, err := m.ScanFrameInto(&sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(a, c) {
		t.Fatal("ScanFrameInto diverged from ScanFrame under a trial seed")
	}

	d.Seed = 1235
	m.SetScanner(d)
	e, err := m.ScanFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	if raster.Equal(a, e) {
		t.Fatal("different scanner seeds produced identical noise")
	}
}

func TestCloneIsolation(t *testing.T) {
	p := tinyProfile()
	m := New(p)
	img, _ := encodeFrame(t, p, 2, 0.5)
	if err := m.Write([]*raster.Gray{img, img.Clone()}); err != nil {
		t.Fatal(err)
	}
	before, err := m.ScanFrame(0)
	if err != nil {
		t.Fatal(err)
	}

	c := m.Clone()
	if err := c.Destroy(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Damage(1, Distortions{DustSpecks: 50, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	c.SetScanner(Distortions{}) // distortion-free scanner on the clone only

	after, err := m.ScanFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(before, after) {
		t.Fatal("damaging the clone mutated the original")
	}
	if m.Profile().Scanner.IsZero() {
		t.Fatal("SetScanner on the clone reached the original's profile")
	}
}

func TestVolumeCloneAndSetScanner(t *testing.T) {
	p := tinyProfile()
	v := NewVolume(p, 2)
	img, _ := encodeFrame(t, p, 4, 0.5)
	frames := []*raster.Gray{img, img.Clone(), img.Clone()}
	if err := v.Write(frames); err != nil {
		t.Fatal(err)
	}
	if v.Sheets() != 2 {
		t.Fatalf("sheets = %d, want 2", v.Sheets())
	}

	c := v.Clone()
	if err := c.DestroySheet(0); err != nil {
		t.Fatal(err)
	}
	orig, err := v.ScanFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	gone, err := c.ScanFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	if raster.Equal(orig, gone) {
		t.Fatal("destroying the clone's sheet left its frames identical to the original's")
	}

	d := p.Scanner
	d.Seed = 7
	c.SetScanner(d)
	for s := 0; s < c.Sheets(); s++ {
		sheet, _ := c.Sheet(s)
		if sheet.Profile().Scanner.Seed != 7 {
			t.Fatalf("sheet %d scanner seed not propagated", s)
		}
	}
	if v.Profile().Scanner.Seed != 0 {
		t.Fatal("SetScanner on the clone reached the original volume")
	}
}

// A generational copy must keep the medium scannable (geometry intact)
// while actually degrading it, and chaining copies must degrade further.
func TestReprintDegradesButPreservesGeometry(t *testing.T) {
	p := tinyProfile()
	m := New(p)
	img, _ := encodeFrame(t, p, 5, 0.5)
	if err := m.Write([]*raster.Gray{img}); err != nil {
		t.Fatal(err)
	}

	g1, err := m.Reprint()
	if err != nil {
		t.Fatal(err)
	}
	if g1.FrameCount() != m.FrameCount() {
		t.Fatalf("reprint frame count %d, want %d", g1.FrameCount(), m.FrameCount())
	}
	s0, err := m.ScanFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := g1.ScanFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.W != s0.W || s1.H != s0.H {
		t.Fatalf("reprint scan geometry %dx%d, want %dx%d", s1.W, s1.H, s0.W, s0.H)
	}
	if raster.Equal(s0, s1) {
		t.Fatal("a print→scan generation left the scans bit-identical")
	}

	// Generation loss accumulates: the mean absolute difference from the
	// pristine written frame grows (or at worst holds) across copies.
	d1 := meanAbsDiff(m.frames[0].gray(), g1.frames[0].gray())
	g2, err := g1.Reprint()
	if err != nil {
		t.Fatal(err)
	}
	d2 := meanAbsDiff(m.frames[0].gray(), g2.frames[0].gray())
	if d1 <= 0 {
		t.Fatal("first generation introduced no degradation")
	}
	if d2 < d1*0.5 {
		t.Fatalf("second generation cleaner than the first: %.3f vs %.3f", d2, d1)
	}
}

func TestVolumeReprintPreservesSheets(t *testing.T) {
	p := tinyProfile()
	v := NewVolume(p, 2)
	img, _ := encodeFrame(t, p, 6, 0.5)
	if err := v.Write([]*raster.Gray{img, img.Clone(), img.Clone()}); err != nil {
		t.Fatal(err)
	}
	r, err := v.Reprint()
	if err != nil {
		t.Fatal(err)
	}
	if r.Sheets() != v.Sheets() || r.FrameCount() != v.FrameCount() {
		t.Fatalf("reprint shape %d sheets/%d frames, want %d/%d",
			r.Sheets(), r.FrameCount(), v.Sheets(), v.FrameCount())
	}
	for s := 0; s < v.Sheets(); s++ {
		a, _ := v.Sheet(s)
		b, _ := r.Sheet(s)
		if a.FrameCount() != b.FrameCount() {
			t.Fatalf("sheet %d frame count changed: %d vs %d", s, a.FrameCount(), b.FrameCount())
		}
	}
}

func meanAbsDiff(a, b *raster.Gray) float64 {
	if a.W != b.W || a.H != b.H {
		return math.Inf(1)
	}
	sum := 0.0
	for i := range a.Pix {
		sum += math.Abs(float64(a.Pix[i]) - float64(b.Pix[i]))
	}
	return sum / float64(len(a.Pix))
}
