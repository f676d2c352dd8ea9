package media

import (
	"bytes"
	"strings"
	"testing"

	"microlonys/raster"
)

func testFrame(p Profile, fill byte) *raster.Gray {
	f := raster.New(p.FrameW, p.FrameH)
	for i := range f.Pix {
		f.Pix[i] = fill ^ byte(i)
	}
	return f
}

// TestWriteAtMatchesSequentialWrite pins the back-patch contract: a frame
// replaced via WriteAt is byte-identical to the same frame written in
// sequence at that slot, because the writer seed depends only on the
// index.
func TestWriteAtMatchesSequentialWrite(t *testing.T) {
	p := Paper()
	p.Writer = Distortions{BlurRadius: 1, Noise: 2} // force the seeded path
	frames := []*raster.Gray{testFrame(p, 0x00), testFrame(p, 0x55), testFrame(p, 0xAA)}

	seq := New(p)
	if err := seq.Write(frames); err != nil {
		t.Fatalf("Write: %v", err)
	}

	patched := New(p)
	if err := patched.Write(frames); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := patched.WriteAt(1, frames[1]); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	for i := range frames {
		if !bytes.Equal(seq.frames[i].gray().Pix, patched.frames[i].gray().Pix) {
			t.Fatalf("frame %d diverged after WriteAt back-patch", i)
		}
	}

	if err := patched.WriteAt(3, frames[0]); err == nil {
		t.Fatal("WriteAt accepted an out-of-range index")
	}
	if err := patched.WriteAt(0, raster.New(1, 1)); err == nil {
		t.Fatal("WriteAt accepted a mis-sized frame")
	}
}

func TestTruncate(t *testing.T) {
	p := Paper()
	m := New(p)
	if err := m.Write([]*raster.Gray{testFrame(p, 1), testFrame(p, 2), testFrame(p, 3)}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	m.Truncate(5)
	if m.FrameCount() != 3 {
		t.Fatalf("Truncate beyond end changed count to %d", m.FrameCount())
	}
	m.Truncate(1)
	if m.FrameCount() != 1 {
		t.Fatalf("Truncate(1) left %d frames", m.FrameCount())
	}
	m.Truncate(-1)
	if m.FrameCount() != 0 {
		t.Fatalf("Truncate(-1) left %d frames", m.FrameCount())
	}
}

// TestVolumeCatalogReservation pins the placement invariants: slot 0 of
// every sheet is reserved, groups never use it, capacity accounting
// includes it, and FillCatalog back-patches exactly that slot.
func TestVolumeCatalogReservation(t *testing.T) {
	p := Paper()
	v := NewVolume(p, 5)
	if err := v.EnableCatalog(); err != nil {
		t.Fatalf("EnableCatalog: %v", err)
	}
	if !v.CatalogEnabled() {
		t.Fatal("CatalogEnabled false after EnableCatalog")
	}

	group := []*raster.Gray{testFrame(p, 1), testFrame(p, 2), testFrame(p, 3), testFrame(p, 4)}
	for i := 0; i < 3; i++ {
		if err := v.WriteGroup(group); err != nil {
			t.Fatalf("WriteGroup %d: %v", i, err)
		}
	}
	// 4-frame groups + 1 catalog slot exactly fill each 5-frame sheet.
	if v.Sheets() != 3 {
		t.Fatalf("got %d sheets, want 3", v.Sheets())
	}
	for s := 0; s < v.Sheets(); s++ {
		m, _ := v.Sheet(s)
		if m.FrameCount() != 5 {
			t.Fatalf("sheet %d holds %d frames, want 5", s, m.FrameCount())
		}
		start, _ := v.SheetStart(s)
		if start != s*5 {
			t.Fatalf("sheet %d starts at %d, want %d", s, start, s*5)
		}
	}

	// A group of 5 no longer fits a 5-frame sheet once slot 0 is reserved.
	five := append(append([]*raster.Gray(nil), group...), testFrame(p, 5))
	if err := v.WriteGroup(five); err == nil || !strings.Contains(err.Error(), "exceeds sheet capacity") {
		t.Fatalf("WriteGroup of sheet-filling group: err %v, want capacity error", err)
	}

	cat := testFrame(p, 0x3C)
	if err := v.FillCatalog(1, cat); err != nil {
		t.Fatalf("FillCatalog: %v", err)
	}
	m, _ := v.Sheet(1)
	want := New(p)
	if err := want.Write([]*raster.Gray{cat}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !bytes.Equal(m.frames[0].gray().Pix, want.frames[0].gray().Pix) {
		t.Fatal("FillCatalog slot diverged from a sequential slot-0 write")
	}

	// The flag survives cloning; a written volume rejects late enablement.
	if !v.Clone().CatalogEnabled() {
		t.Fatal("Clone dropped the catalog flag")
	}
	if err := v.EnableCatalog(); err == nil {
		t.Fatal("EnableCatalog accepted a written volume")
	}
	if err := NewVolume(p, 1).EnableCatalog(); err == nil {
		t.Fatal("EnableCatalog accepted a 1-frame sheet capacity")
	}
	if err := NewVolume(p, 5).FillCatalog(0, cat); err == nil {
		t.Fatal("FillCatalog accepted a catalog-free volume")
	}
}
