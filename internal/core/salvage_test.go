package core

// Salvage-engine tests: restoring an unordered, damaged, duplicated,
// incomplete bag of sheets with no external bootstrap text. The
// acceptance differential — Salvage output byte-identical to Restore
// whenever damage stays within the parity budget — is pinned at workers
// 1, 2 and 8, and the identification ledger (ordinals, duplicates,
// missing sheets) is asserted against known damage.

import (
	"bytes"
	"errors"
	"io"
	mrand "math/rand"
	"reflect"
	"testing"

	"microlonys/internal/emblem"
	"microlonys/internal/faultinject"
	"microlonys/internal/mocoder"
	"microlonys/media"
)

// catalogArchive builds a 3-sheet catalog-enabled raw archive over
// testPayload data: three 20-frame groups, 21-frame sheets (group +
// catalog slot).
func catalogArchive(t *testing.T, compress bool) (*Archived, []byte) {
	t.Helper()
	prof := media.Tiny()
	capacity := mocoder.Capacity(prof.Layout)
	data := testPayload(40 * capacity)
	opts := DefaultOptions(prof)
	opts.Compress = compress
	opts.SheetFrames = 21
	opts.Catalog = true
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Volume.Sheets() != 3 {
		t.Fatalf("want 3 sheets, got %d", arch.Volume.Sheets())
	}
	if arch.Manifest.CatalogFrames != 3 || arch.Manifest.ArchiveID == 0 {
		t.Fatalf("catalog manifest: %+v", arch.Manifest)
	}
	return arch, data
}

// bagOf pulls the volume's sheets in the given presentation order.
func bagOf(t *testing.T, v *media.Volume, order ...int) []*media.Medium {
	t.Helper()
	bag := make([]*media.Medium, 0, len(order))
	for _, s := range order {
		m, err := v.Sheet(s)
		if err != nil {
			t.Fatal(err)
		}
		bag = append(bag, m)
	}
	return bag
}

// TestSalvageMatchesRestoreShuffled is the headline acceptance
// differential: a shuffled bag with no bootstrap text salvages to the
// exact Restore output — the exact archive — at workers 1, 2 and 8,
// with identical reports.
func TestSalvageMatchesRestoreShuffled(t *testing.T) {
	arch, data := catalogArchive(t, false)

	want, _, err := RestoreVolume(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, data) {
		t.Fatal("restore differs from input")
	}

	bag := bagOf(t, arch.Volume, 2, 0, 1)
	var ref *SalvageReport
	for _, workers := range []int{1, 2, 8} {
		got, rep, err := Salvage(bag, SalvageOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: salvage differs from restore", workers)
		}
		if !rep.Complete || rep.SheetsDuplicate != 0 || rep.SheetsUnidentified != 0 {
			t.Fatalf("workers=%d: report %+v", workers, rep)
		}
		if rep.ArchiveID != arch.Manifest.ArchiveID {
			t.Fatalf("workers=%d: archive id %#x, manifest %#x", workers, rep.ArchiveID, arch.Manifest.ArchiveID)
		}
		if !reflect.DeepEqual(rep.SheetsIdentified, []int{0, 1, 2}) || len(rep.SheetsMissing) != 0 {
			t.Fatalf("workers=%d: identification %+v / %+v", workers, rep.SheetsIdentified, rep.SheetsMissing)
		}
		// The tiny test frame (361B) cannot carry the ~6KB bootstrap
		// replica, so the catalog legitimately trimmed it: identity,
		// inventory and checksums survive, BootstrapRecovered stays false.
		if !rep.CatalogUsed || rep.CatalogFrames != 3 || rep.BootstrapRecovered {
			t.Fatalf("workers=%d: catalog fields %+v", workers, rep)
		}
		if rep.Stats.GroupsVerified != arch.Manifest.Groups || rep.Stats.GroupsMismatched != 0 {
			t.Fatalf("workers=%d: verification %+v", workers, rep.Stats)
		}
		if ref == nil {
			ref = rep
		} else {
			rep.Stats.Mode = ref.Stats.Mode // same by construction
			if !reflect.DeepEqual(rep, ref) {
				t.Fatalf("workers=%d: report diverged:\n%+v\n%+v", workers, rep, ref)
			}
		}
	}
}

// TestSalvageDamagedAndDuplicated: frame damage within the parity budget
// plus a redundant copy of one sheet still salvages bit-exact, and the
// ledger counts the duplicate.
func TestSalvageDamagedAndDuplicated(t *testing.T) {
	arch, data := catalogArchive(t, false)
	// Three destroyed frames per group — the parity limit. Local slot 0 is
	// the catalog; group frames are 1..20.
	for _, loss := range []struct{ sheet, frame int }{
		{0, 1}, {0, 8}, {0, 20}, {1, 4}, {1, 12}, {1, 19}, {2, 5},
	} {
		if err := arch.Volume.Destroy(loss.sheet, loss.frame); err != nil {
			t.Fatal(err)
		}
	}
	bag := bagOf(t, arch.Volume, 1, 2, 0, 1) // sheet 1 presented twice
	got, rep, err := Salvage(bag, SalvageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("salvage after parity-budget damage differs from input")
	}
	if !rep.Complete || rep.SheetsDuplicate != 1 || rep.SheetsPresented != 4 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Stats.GroupsRecovered != 3 || rep.Stats.GroupsVerified != 3 {
		t.Fatalf("stats %+v", rep.Stats)
	}
}

// TestSalvageWithheldSheet: a sheet missing from the bag is named in the
// ledger, its groups are zero-filled at their archive offsets, and the
// survivors restore bit-exact.
func TestSalvageWithheldSheet(t *testing.T) {
	arch, data := catalogArchive(t, false)
	capacity := mocoder.Capacity(media.Tiny().Layout)

	bag := bagOf(t, arch.Volume, 2, 0) // sheet 1 withheld
	got, rep, err := Salvage(bag, SalvageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatalf("salvage output %d bytes, want %d (zero-filled)", len(got), len(data))
	}
	lo, hi := 17*capacity, 34*capacity
	if !bytes.Equal(got[:lo], data[:lo]) || !bytes.Equal(got[hi:], data[hi:]) {
		t.Fatal("surviving groups shifted off their archive offsets")
	}
	if !bytes.Equal(got[lo:hi], make([]byte, hi-lo)) {
		t.Fatal("withheld sheet's group not zero-filled")
	}
	if rep.Complete {
		t.Fatal("report claims completeness after a lost sheet")
	}
	if !reflect.DeepEqual(rep.SheetsMissing, []int{1}) ||
		!reflect.DeepEqual(rep.SheetsIdentified, []int{0, 2}) {
		t.Fatalf("identification %+v / %+v", rep.SheetsIdentified, rep.SheetsMissing)
	}
	if rep.Stats.GroupsLost != 1 || rep.Stats.GroupsVerified != 2 {
		t.Fatalf("stats %+v", rep.Stats)
	}
}

// TestSalvageCatalogFreeFallback: an archive written without catalogs
// still salvages from a shuffled bag — ordering falls back to the frame
// headers' index vote. The original ordinals are unknowable, so the
// ledger reports planner-order numbering and no catalog.
func TestSalvageCatalogFreeFallback(t *testing.T) {
	prof := media.Tiny()
	capacity := mocoder.Capacity(prof.Layout)
	data := testPayload(40 * capacity)
	opts := DefaultOptions(prof)
	opts.Compress = false
	opts.SheetFrames = 20
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	bag := bagOf(t, arch.Volume, 1, 2, 0)
	got, rep, err := Salvage(bag, SalvageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("catalog-free salvage differs from input")
	}
	if rep.CatalogUsed || rep.ArchiveID != 0 || rep.CatalogFrames != 0 {
		t.Fatalf("catalog fields set on a catalog-free archive: %+v", rep)
	}
	if !rep.Complete || rep.Stats.GroupsVerified != 0 {
		t.Fatalf("report %+v", rep)
	}
}

// TestSalvageDestroyedCatalogs: every catalog frame destroyed on a
// catalog volume — identification falls back to the header vote and the
// data still salvages bit-exact (an unreadable catalog costs context,
// never data).
func TestSalvageDestroyedCatalogs(t *testing.T) {
	arch, data := catalogArchive(t, false)
	for s := 0; s < arch.Volume.Sheets(); s++ {
		if err := arch.Volume.Destroy(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	bag := bagOf(t, arch.Volume, 2, 1, 0)
	got, rep, err := Salvage(bag, SalvageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("salvage with destroyed catalogs differs from input")
	}
	if rep.CatalogUsed || rep.CatalogFrames != 0 {
		t.Fatalf("destroyed catalogs still reported: %+v", rep)
	}
	if !rep.Complete {
		t.Fatalf("report %+v / stats %+v", rep, rep.Stats)
	}
}

// TestSalvageSingleCatalogSurvivor: only one sheet's catalog survives;
// it still supplies identity, inventory and checksums for the whole bag.
func TestSalvageSingleCatalogSurvivor(t *testing.T) {
	arch, data := catalogArchive(t, false)
	for _, s := range []int{0, 2} {
		if err := arch.Volume.Destroy(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	bag := bagOf(t, arch.Volume, 2, 0, 1)
	got, rep, err := Salvage(bag, SalvageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("salvage with a single surviving catalog differs from input")
	}
	if !rep.CatalogUsed || rep.CatalogFrames != 1 || rep.ArchiveID != arch.Manifest.ArchiveID {
		t.Fatalf("report %+v", rep)
	}
	if !reflect.DeepEqual(rep.SheetsIdentified, []int{0, 1, 2}) {
		t.Fatalf("identification %+v", rep.SheetsIdentified)
	}
	if rep.Stats.GroupsVerified != 3 {
		t.Fatalf("stats %+v", rep.Stats)
	}
}

// TestSalvageTruncatedSheet: a sheet that lost its tail (a torn carrier)
// is still identified and its group recovered when the loss stays within
// parity.
func TestSalvageTruncatedSheet(t *testing.T) {
	arch, data := catalogArchive(t, false)
	s1, err := arch.Volume.Sheet(1)
	if err != nil {
		t.Fatal(err)
	}
	s1.Truncate(s1.FrameCount() - 3) // drop 3 of the group's 20 frames
	bag := bagOf(t, arch.Volume, 1, 0, 2)
	got, rep, err := Salvage(bag, SalvageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("salvage of a truncated sheet differs from input")
	}
	if !rep.Complete || rep.Stats.GroupsRecovered != 1 {
		t.Fatalf("report %+v stats %+v", rep, rep.Stats)
	}
}

// TestSalvageCompressedArchive: the compressed pipeline end to end — the
// data and system sections reassemble from the shuffled bag and DBDecode
// reproduces the original bytes.
func TestSalvageCompressedArchive(t *testing.T) {
	prof := media.Tiny()
	// Incompressible data keeps the compressed stream over one group, so
	// the data and system sections are guaranteed to span sheets.
	data := make([]byte, 8000)
	mrand.New(mrand.NewSource(11)).Read(data)
	opts := DefaultOptions(prof)
	opts.SheetFrames = 21
	opts.Catalog = true
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Volume.Sheets() < 2 {
		t.Fatalf("want a multi-sheet compressed archive, got %d sheets", arch.Volume.Sheets())
	}
	order := make([]int, arch.Volume.Sheets())
	for i := range order {
		order[i] = len(order) - 1 - i
	}
	got, rep, err := Salvage(bagOf(t, arch.Volume, order...), SalvageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("compressed salvage differs from input")
	}
	if !rep.Complete {
		t.Fatalf("report %+v", rep)
	}
}

// TestSalvageEmptyAndUnreadable: degenerate bags fail with ErrRestore
// instead of panicking or fabricating output.
func TestSalvageEmptyAndUnreadable(t *testing.T) {
	if _, _, err := Salvage(nil, SalvageOptions{}); !errors.Is(err, ErrRestore) {
		t.Fatalf("empty bag: got %v, want ErrRestore", err)
	}
	prof := media.Tiny()
	m := media.New(prof)
	if _, _, err := Salvage([]*media.Medium{m}, SalvageOptions{}); !errors.Is(err, ErrRestore) {
		t.Fatalf("frameless bag: got %v, want ErrRestore", err)
	}
	arch, _ := catalogArchive(t, false)
	s0, err := arch.Volume.Sheet(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s0.FrameCount(); i++ {
		if err := s0.Destroy(i); err != nil {
			t.Fatal(err)
		}
	}
	_, rep, err := Salvage([]*media.Medium{s0}, SalvageOptions{})
	if !errors.Is(err, ErrRestore) {
		t.Fatalf("fully destroyed bag: got %v, want ErrRestore", err)
	}
	if rep == nil || rep.SheetsUnidentified != 1 {
		t.Fatalf("report %+v", rep)
	}
}

// TestSalvageEmulatedFromReplica: the full disaster drill — no bootstrap
// text, decoders recovered from the catalog's compressed replica and
// executed under DynaRisc emulation. Needs a frame large enough to carry
// the replica.
func TestSalvageEmulatedFromReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("emulated salvage is slow")
	}
	l := emblem.Layout{DataW: 480, DataH: 360, PxPerModule: 2}
	prof := media.Profile{
		Name:   "salvage-test",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
	}
	data := testPayload(12000)
	opts := DefaultOptions(prof)
	opts.GroupData = 4
	opts.SheetFrames = 8 // one 4+3 group + catalog slot
	opts.Catalog = true
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Volume.Sheets() < 2 {
		t.Fatalf("want >=2 sheets, got %d", arch.Volume.Sheets())
	}
	order := make([]int, arch.Volume.Sheets())
	for i := range order {
		order[i] = len(order) - 1 - i
	}
	got, rep, err := Salvage(bagOf(t, arch.Volume, order...), SalvageOptions{Mode: RestoreDynaRisc})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("emulated salvage differs from input")
	}
	if !rep.BootstrapFromCatalog || !rep.BootstrapRecovered || !rep.Complete {
		t.Fatalf("report %+v", rep)
	}

	// Without a readable catalog, emulated salvage has no decoders to run
	// and must say so.
	bag := bagOf(t, arch.Volume, order...)
	for _, m := range bag {
		if err := m.Destroy(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := Salvage(bag, SalvageOptions{Mode: RestoreDynaRisc}); !errors.Is(err, ErrRestore) {
		t.Fatalf("replica-free emulated salvage: got %v, want ErrRestore", err)
	}
}

// TestSalvageFaultSchedules drives the salvage engine through seeded
// fault-injection schedules — shuffle, duplicate, catalog corruption,
// random frame destruction, a torn sheet — and pins worker-count
// independence on every schedule: bytes and reports identical at 1, 2
// and 8 workers, and bit-exact recovery whenever the report claims
// completeness.
func TestSalvageFaultSchedules(t *testing.T) {
	arch, data := catalogArchive(t, false)
	recovered := 0
	for seed := int64(1); seed <= 4; seed++ {
		sched := faultinject.New(seed)
		bag := bagOf(t, arch.Volume, 0, 1, 2)
		for i, m := range bag {
			bag[i] = m.Clone()
		}
		sched.Shuffle(bag)
		bag = sched.Duplicate(bag, 1)
		if err := sched.CorruptCatalogs(bag, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := sched.DestroyFraction(bag, 0.05); err != nil {
			t.Fatal(err)
		}
		sched.TruncateRandom(bag, 18)

		var want []byte
		var wantRep *SalvageReport
		for _, workers := range []int{1, 2, 8} {
			got, rep, err := Salvage(bag, SalvageOptions{Workers: workers})
			if err != nil {
				t.Fatalf("seed=%d workers=%d: %v", seed, workers, err)
			}
			if want == nil {
				want, wantRep = got, rep
			} else {
				if !bytes.Equal(got, want) {
					t.Fatalf("seed=%d workers=%d: bytes diverged from serial", seed, workers)
				}
				if !reflect.DeepEqual(rep, wantRep) {
					t.Fatalf("seed=%d workers=%d: report diverged:\n%+v\n%+v", seed, workers, rep, wantRep)
				}
			}
		}
		if wantRep.Complete {
			recovered++
			if !bytes.Equal(want, data) {
				t.Fatalf("seed=%d: report claims completeness but bytes differ", seed)
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no schedule recovered; damage too harsh to pin the positive path")
	}
}

// TestSalvageToErroringWriter: an output sink that dies mid-salvage
// surfaces ErrInjected through ErrRestore and drains the pipeline, at
// several worker counts.
func TestSalvageToErroringWriter(t *testing.T) {
	arch, _ := catalogArchive(t, false)
	capacity := mocoder.Capacity(media.Tiny().Layout)
	bag := bagOf(t, arch.Volume, 2, 1, 0)
	for _, workers := range []int{1, 2, 8} {
		w := faultinject.Writer(io.Discard, 18*capacity)
		_, err := SalvageTo(w, bag, SalvageOptions{Workers: workers})
		if !errors.Is(err, ErrRestore) || !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("workers=%d: got %v, want ErrRestore wrapping ErrInjected", workers, err)
		}
	}
}
