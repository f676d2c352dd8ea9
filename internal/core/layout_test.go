package core

// The archive layout (layoutGroups) is the one group/sheet arithmetic the
// planner, the catalog inventory and the index replay share. These tests
// pin it against the volume the place stage actually cut, and bound what
// a forged index or catalog can make a restore allocate.

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"microlonys/internal/archindex"
	"microlonys/internal/catalog"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
)

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLayoutMatchesVolume: the layout the planner cut from lands every
// group where the place stage put it — the sheet, the scan position and
// the header index each group's first frame carries — for unbounded,
// bounded and reserved-slot volumes alike.
func TestLayoutMatchesVolume(t *testing.T) {
	prof := tinyProfile()
	capacity := mocoder.Capacity(prof.Layout)
	for _, tc := range []struct {
		sheetFrames    int
		catalog, index bool
		compress       bool
		chunks         int
	}{
		{0, false, false, false, 40},
		{20, false, false, false, 40},
		{23, true, false, true, 60},
		{22, true, true, false, 40},
	} {
		opts := DefaultOptions(prof)
		opts.SheetFrames, opts.Catalog, opts.Index, opts.Compress = tc.sheetFrames, tc.catalog, tc.index, tc.compress
		arch, err := CreateArchive(testPayload(tc.chunks*capacity), opts)
		if err != nil {
			t.Fatal(err)
		}
		secs := []archiveSection{{kind: emblem.KindRaw, total: arch.Manifest.RawLen}}
		if tc.compress {
			secs = []archiveSection{{kind: emblem.KindData, total: arch.Manifest.StreamLen},
				{kind: emblem.KindSystem, total: arch.Manifest.SystemLen}}
		}
		reserved := boolInt(tc.catalog) + boolInt(tc.index)
		groups, err := layoutGroups(secs, capacity, opts.GroupData, mocoder.GroupParity,
			tc.sheetFrames, reserved, arch.Volume.FrameCount())
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		last := groups[len(groups)-1]
		if last.scanStart+last.size() != arch.Manifest.TotalFrames || last.sheet+1 != arch.Volume.Sheets() ||
			len(groups) != arch.Manifest.Groups {
			t.Fatalf("%+v: layout of %d groups ends at frame %d on sheet %d; manifest %+v",
				tc, len(groups), last.scanStart+last.size(), last.sheet, arch.Manifest)
		}
		for _, g := range groups {
			sheet, slot, err := arch.Volume.Locate(g.scanStart)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := arch.Volume.Sheet(sheet)
			img, err := m.ScanFrame(slot)
			if err != nil {
				t.Fatal(err)
			}
			_, hdr, _, err := mocoder.Decode(img, prof.Layout)
			if err != nil {
				t.Fatalf("%+v: group %d first frame: %v", tc, g.id, err)
			}
			if sheet != g.sheet || int(hdr.GroupID) != g.id || int(hdr.Index) != g.frame ||
				hdr.GroupPos != 0 || int(hdr.GroupData) != g.data || hdr.Kind != g.kind {
				t.Fatalf("%+v: group %+v landed on sheet %d with header %+v", tc, g, sheet, hdr)
			}
		}
	}
}

// TestPlanGeometryBoundsForgedIndex: an index claiming a stream far
// longer than the volume — a forged or corrupted varint — is refused once
// its layout passes the volume's frame count, instead of laying out one
// extent per claimed group first.
func TestPlanGeometryBoundsForgedIndex(t *testing.T) {
	arch, _ := indexedArchive(t, true)
	x, _, err := ListIndex(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	capacity := mocoder.Capacity(arch.Options.Profile.Layout)
	if _, err := planGeometry(x, capacity, arch.Volume); err != nil {
		t.Fatalf("genuine index: %v", err)
	}
	x.StreamLen = 1 << 32
	b, err := x.Marshal(0)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := archindex.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	var geoErr error
	alloc := allocated(func() { _, geoErr = planGeometry(forged, capacity, arch.Volume) })
	if !errors.Is(geoErr, errIndexMiss) {
		t.Fatalf("forged index: got %v, want errIndexMiss", geoErr)
	}
	if alloc > 16<<20 {
		t.Fatalf("forged index allocated %d MB replaying its layout", alloc>>20)
	}
}

// TestSalvageForgedCatalogCounts: a CRC-valid catalog claiming more
// frames than the emblem header can address is rejected, so salvage falls
// back to the header vote and restores the archive without sizing its
// frame space from the forged count.
func TestSalvageForgedCatalogCounts(t *testing.T) {
	arch, data := catalogArchive(t, false)
	layout := arch.Options.Profile.Layout
	m, err := arch.Volume.Sheet(0)
	if err != nil {
		t.Fatal(err)
	}
	img, err := m.ScanFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, _, err := mocoder.Decode(img, layout)
	if err != nil {
		t.Fatal(err)
	}
	c, err := catalog.Parse(payload)
	if err != nil {
		t.Fatal(err)
	}
	c.TotalFrames = 1 << 22
	p := &planner{opts: arch.Options}
	if err := p.fillReserved(arch.Volume, emblem.KindCatalog, emblem.CatalogGroupID, &encScratch{},
		func(s int) ([]byte, error) {
			c.Sheet = s
			return c.Marshal(mocoder.Capacity(layout))
		}, arch.Volume.FillCatalog); err != nil {
		t.Fatal(err)
	}

	bag := bagOf(t, arch.Volume, 1, 2, 0)
	var got []byte
	var rep *SalvageReport
	alloc := allocated(func() { got, rep, err = Salvage(bag, SalvageOptions{Workers: 2}) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("salvage under forged catalogs differs from input")
	}
	if alloc > 64<<20 {
		t.Fatalf("salvage allocated %d MB under a forged catalog count", alloc>>20)
	}
	if rep.CatalogUsed {
		t.Fatalf("forged catalog adopted: %+v", rep)
	}
}

// FuzzPlanGeometry feeds arbitrary index integers against the indexed
// fixture volume: planGeometry must never panic, and each input yields
// either errIndexMiss or a layout ending exactly at the volume's frame
// count — in time and memory bounded by that count.
func FuzzPlanGeometry(f *testing.F) {
	arch, _ := indexedArchive(f, true)
	m := arch.Manifest
	capacity := mocoder.Capacity(arch.Options.Profile.Layout)
	f.Add(true, true, m.RawLen, m.StreamLen, m.SystemLen, 17, 3, 22)
	f.Add(false, true, m.RawLen, m.StreamLen, m.SystemLen, 17, 3, 22)
	f.Add(true, false, m.RawLen, m.StreamLen, m.SystemLen, 17, 3, 21)
	f.Add(true, true, m.RawLen, 1<<40, m.SystemLen, 17, 3, 22)
	f.Add(true, true, -1, -1, -1, 0, -1, -1)
	f.Add(false, false, 1<<62, 0, 0, 255, 255, 0)
	f.Add(true, true, 0, 0, 0, 1, 0, 3)

	f.Fuzz(func(t *testing.T, compress, catalogSlot bool, rawLen, streamLen, systemLen, groupData, groupParity, sheetFrames int) {
		x := &archindex.Index{
			Compress: compress, CatalogSlot: catalogSlot,
			RawLen: rawLen, StreamLen: streamLen, SystemLen: systemLen,
			GroupData: groupData, GroupParity: groupParity, SheetFrames: sheetFrames,
		}
		geo, err := planGeometry(x, capacity, arch.Volume)
		if err != nil {
			if !errors.Is(err, errIndexMiss) {
				t.Fatalf("got %v, want errIndexMiss", err)
			}
			return
		}
		if last := geo[len(geo)-1]; last.scanStart+last.size() != arch.Volume.FrameCount() {
			t.Fatalf("layout ends at frame %d of a %d-frame volume", last.scanStart+last.size(), arch.Volume.FrameCount())
		}
	})
}
