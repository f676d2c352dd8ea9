package core

// Selective-restore differentials: RestoreRange and RestoreTable must
// return exactly the corresponding slice of a full Restore — at workers
// 1, 2 and 8, through damage, Partial mode and index loss — while
// touching only the frames the query needs.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"microlonys/internal/archindex"
	"microlonys/internal/dbcoder"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/internal/sqldump"
	"microlonys/media"
	"microlonys/tpch"
)

// indexedArchive archives a small TPC-H dump onto an indexed catalog
// volume of several sheets. Returns the archive and the dump bytes. The
// dump is fitted once per test binary (tpch.FitScaleFactor renders the
// database up to a dozen times) and archived once per compress setting;
// each caller gets its own Volume.Clone of the archive, which it may
// damage, and must not modify the dump.
func indexedArchive(t testing.TB, compress bool) (*Archived, []byte) {
	t.Helper()
	indexedFixtures.Lock()
	defer indexedFixtures.Unlock()
	prof := media.Tiny()
	capacity := mocoder.Capacity(prof.Layout)
	if indexedFixtures.data == nil {
		_, db := tpch.FitScaleFactor(40*capacity, 7, sqldump.Dump)
		indexedFixtures.data = sqldump.Dump(db)
	}
	arch := indexedFixtures.arch[compress]
	if arch == nil {
		opts := DefaultOptions(prof)
		opts.Compress = compress
		opts.CompressDepth = 1
		opts.SheetFrames = 22 // 17+3 group + catalog + index slots
		opts.Catalog = true
		opts.Index = true
		opts.IndexBlockBytes = 4 * capacity
		var err error
		if arch, err = CreateArchive(indexedFixtures.data, opts); err != nil {
			t.Fatal(err)
		}
		if arch.Volume.Sheets() < 2 {
			t.Fatalf("want a multi-sheet volume, got %d sheets", arch.Volume.Sheets())
		}
		if arch.Manifest.IndexFrames != arch.Volume.Sheets() {
			t.Fatalf("manifest: %+v", arch.Manifest)
		}
		if indexedFixtures.arch == nil {
			indexedFixtures.arch = map[bool]*Archived{}
		}
		indexedFixtures.arch[compress] = arch
	}
	own := *arch
	own.Volume = arch.Volume.Clone()
	return &own, indexedFixtures.data
}

// indexedFixtures caches indexedArchive's dump and archives.
var indexedFixtures struct {
	sync.Mutex
	data []byte
	arch map[bool]*Archived // by compress
}

// checkRange asserts one indexed range query against the input slice at
// workers 1, 2 and 8, and that the frame accounting reconciles.
func checkRange(t *testing.T, arch *Archived, data []byte, off, length int) *RestoreStats {
	t.Helper()
	var last *RestoreStats
	for _, workers := range []int{1, 2, 8} {
		got, st, err := RestoreRange(arch.Volume, arch.BootstrapText, off, length,
			RestoreOptions{Mode: RestoreNative, Workers: workers})
		if err != nil {
			t.Fatalf("range %d:%d workers=%d: %v", off, length, workers, err)
		}
		if !bytes.Equal(got, data[off:off+length]) {
			t.Fatalf("range %d:%d workers=%d: bytes differ from input slice", off, length, workers)
		}
		if st.IndexFallbacks != 0 {
			t.Fatalf("range %d:%d workers=%d: unexpected fallback: %+v", off, length, workers, st)
		}
		if st.FramesScanned+st.FramesSkipped != arch.Volume.FrameCount() {
			t.Fatalf("range %d:%d workers=%d: %d scanned + %d skipped != %d frames",
				off, length, workers, st.FramesScanned, st.FramesSkipped, arch.Volume.FrameCount())
		}
		last = st
	}
	return last
}

// TestReaderConcurrentCalls: a Reader keeps nothing between calls, so
// goroutines may share one. Restore, Range, Section and Index calls made
// at once on one Reader each return the bytes and the full stats of the
// same call made alone.
func TestReaderConcurrentCalls(t *testing.T) {
	f := cleanFixture(t, true)
	r, err := Open(f.pre, f.arch.BootstrapText, RestoreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	calls := []func(io.Writer) (*RestoreStats, error){
		r.Restore,
		func(w io.Writer) (*RestoreStats, error) { return r.Range(w, 6562, 6562) },
		func(w io.Writer) (*RestoreStats, error) { return r.Section(w, "region") },
		func(io.Writer) (*RestoreStats, error) { _, st, err := r.Index(); return st, err },
	}
	type answer struct {
		out []byte
		st  *RestoreStats
		err error
	}
	run := func(call func(io.Writer) (*RestoreStats, error)) answer {
		var buf bytes.Buffer
		st, err := call(&buf)
		return answer{buf.Bytes(), st, err}
	}
	alone := make([]answer, len(calls))
	for i, call := range calls {
		if alone[i] = run(call); alone[i].err != nil {
			t.Fatalf("call %d alone: %v", i, alone[i].err)
		}
	}
	shared := make([]answer, 2*len(calls))
	var wg sync.WaitGroup
	for i := range shared {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared[i] = run(calls[i%len(calls)])
		}()
	}
	wg.Wait()
	for i, got := range shared {
		want := alone[i%len(calls)]
		if got.err != nil {
			t.Fatalf("call %d shared: %v", i%len(calls), got.err)
		}
		if !bytes.Equal(got.out, want.out) || !reflect.DeepEqual(got.st, want.st) {
			t.Fatalf("call %d shared: bytes or stats differ from the call alone\n got %+v\nwant %+v", i%len(calls), got.st, want.st)
		}
	}
}

// TestRestoreRangeMatchesFullSlice: every queried range of a compressed
// indexed volume is byte-identical to the same slice of the input —
// boundary ranges, block-crossing ranges, the whole archive and the
// empty range — and small queries skip most of the volume.
func TestRestoreRangeMatchesFullSlice(t *testing.T) {
	arch, data := indexedArchive(t, true)

	// The full restore is the reference the slices are checked against.
	full, _, err := RestoreVolume(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, data) {
		t.Fatal("full restore differs from input")
	}

	n := len(data)
	st := checkRange(t, arch, data, 0, 200)
	if st.FramesSkipped == 0 || st.GroupsDecoded == 0 {
		t.Fatalf("head query skipped nothing: %+v", st)
	}
	checkRange(t, arch, data, n-200, 200)
	checkRange(t, arch, data, n/3, n/3) // spans restart blocks
	checkRange(t, arch, data, 0, n)
	st = checkRange(t, arch, data, n/2, 0)
	if st.GroupsDecoded != 0 {
		t.Fatalf("empty query decoded groups: %+v", st)
	}

	// Beyond-the-archive ranges are rejected, not truncated.
	if _, _, err := RestoreRange(arch.Volume, arch.BootstrapText, n-10, 20,
		RestoreOptions{Mode: RestoreNative}); err == nil {
		t.Fatal("out-of-range query succeeded")
	}
}

// TestRestoreRangeOverflowRejected: a range whose end overflows int is
// rejected on indexed volumes right after the index probe — no payload
// frame scanned, no full-restore fallback.
func TestRestoreRangeOverflowRejected(t *testing.T) {
	for _, compress := range []bool{true, false} {
		arch, _ := indexedArchive(t, compress)
		_, st, err := RestoreRange(arch.Volume, arch.BootstrapText, math.MaxInt-10, 100,
			RestoreOptions{Mode: RestoreNative})
		if !errors.Is(err, ErrRestore) {
			t.Fatalf("compress=%v: got %v, want ErrRestore", compress, err)
		}
		if st.FramesScanned != 1 || st.IndexFallbacks != 0 || st.GroupsDecoded != 0 {
			t.Fatalf("compress=%v: scanned beyond the index probe: %+v", compress, st)
		}
	}
}

// TestRestoreRangeRawArchive: the same differential on an uncompressed
// volume, where ranges map directly to group extents.
func TestRestoreRangeRawArchive(t *testing.T) {
	arch, data := indexedArchive(t, false)
	n := len(data)
	st := checkRange(t, arch, data, 0, 100)
	if st.FramesSkipped == 0 {
		t.Fatalf("head query skipped nothing: %+v", st)
	}
	checkRange(t, arch, data, n-100, 100)
	checkRange(t, arch, data, n/2, n/4)
	checkRange(t, arch, data, 0, n)
}

// TestRestoreTableMatchesFullSlice: table and column queries return
// exactly the extent sqldump locates in the input, and unknown names
// surface an error naming the miss.
func TestRestoreTableMatchesFullSlice(t *testing.T) {
	arch, data := indexedArchive(t, true)
	secs, err := sqldump.Sections(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) < 2 {
		t.Fatalf("want several tables, got %d", len(secs))
	}
	for _, sec := range secs[:2] {
		for _, workers := range []int{1, 2, 8} {
			got, st, err := RestoreTable(arch.Volume, arch.BootstrapText, sec.Table,
				RestoreOptions{Mode: RestoreNative, Workers: workers})
			if err != nil {
				t.Fatalf("table %q workers=%d: %v", sec.Table, workers, err)
			}
			if !bytes.Equal(got, data[sec.Off:sec.Off+sec.Len]) {
				t.Fatalf("table %q workers=%d: bytes differ from input extent", sec.Table, workers)
			}
			if st.IndexFallbacks != 0 || st.FramesScanned+st.FramesSkipped != arch.Volume.FrameCount() {
				t.Fatalf("table %q workers=%d: stats %+v", sec.Table, workers, st)
			}
		}
	}

	// A column restores its owning table's rows region (the minimal
	// contiguous cover).
	sec := secs[0]
	col := sec.Table + "." + sec.Columns[0]
	got, _, err := RestoreSection(arch.Volume, arch.BootstrapText, col, RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[sec.Off:sec.Off+sec.Len]) {
		t.Fatalf("column %q differs from its table extent", col)
	}

	if _, _, err := RestoreTable(arch.Volume, arch.BootstrapText, "no_such_table",
		RestoreOptions{Mode: RestoreNative}); err == nil || !strings.Contains(err.Error(), "no_such_table") {
		t.Fatalf("unknown table: got %v", err)
	}
}

// TestRestoreRangeDamagedGroup: damage within the parity budget of the
// queried group recovers bit-exact; a sheet destroyed outside the query
// does not touch it at all — the selective query succeeds where the
// strict full restore fails.
func TestRestoreRangeDamagedGroup(t *testing.T) {
	arch, data := indexedArchive(t, true)

	// Three frames of the first payload group (locals 2..4 after the
	// catalog and index slots) — exactly the outer-code budget.
	for local := 2; local <= 4; local++ {
		if err := arch.Volume.Destroy(0, local); err != nil {
			t.Fatal(err)
		}
	}
	st := checkRange(t, arch, data, 0, 300)
	if st.GroupsRecovered == 0 {
		t.Fatalf("damaged group not recovered: %+v", st)
	}

	// Destroy the last sheet entirely: queries over the first group still
	// answer, while the strict full restore now fails.
	if err := arch.Volume.DestroySheet(arch.Volume.Sheets() - 1); err != nil {
		t.Fatal(err)
	}
	checkRange(t, arch, data, 0, 300)
	if _, _, err := RestoreVolume(arch.Volume, arch.BootstrapText,
		RestoreOptions{Mode: RestoreNative}); err == nil {
		t.Fatal("strict full restore succeeded despite a destroyed sheet")
	}
}

// TestRestoreRangePartialLoss: a group lost beyond parity inside the
// query zero-fills exactly the bytes the full Partial restore zero-fills.
func TestRestoreRangePartialLoss(t *testing.T) {
	arch, data := indexedArchive(t, false) // raw: Partial holes stay local
	if err := arch.Volume.DestroySheet(0); err != nil {
		t.Fatal(err)
	}

	var fullBuf bytes.Buffer
	_, err := RestoreToWriter(&fullBuf, arch.Volume, arch.BootstrapText,
		RestoreOptions{Mode: RestoreNative, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	full := fullBuf.Bytes()
	if len(full) != len(data) || bytes.Equal(full, data) {
		t.Fatalf("partial reference: len %d vs %d", len(full), len(data))
	}

	off, length := 0, 4000 // inside the lost sheet's groups
	for _, workers := range []int{1, 2, 8} {
		got, st, err := RestoreRange(arch.Volume, arch.BootstrapText, off, length,
			RestoreOptions{Mode: RestoreNative, Partial: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got, full[off:off+length]) {
			t.Fatalf("workers=%d: partial range differs from full partial slice", workers)
		}
		if st.GroupsLost == 0 || st.BytesLost == 0 {
			t.Fatalf("workers=%d: loss not reported: %+v", workers, st)
		}
	}

	// Without Partial the same query is a hard error.
	if _, _, err := RestoreRange(arch.Volume, arch.BootstrapText, off, length,
		RestoreOptions{Mode: RestoreNative}); err == nil {
		t.Fatal("strict query over a lost group succeeded")
	}
}

// TestRestoreRangeCorruptIndexFallsBack: with every index emblem gone —
// and no catalog replica to fall back on — a range query silently takes
// the full-restore path, counted in IndexFallbacks, and still returns
// the exact slice.
func TestRestoreRangeCorruptIndexFallsBack(t *testing.T) {
	prof := media.Tiny()
	capacity := mocoder.Capacity(prof.Layout)
	data := testPayload(30 * capacity)
	opts := DefaultOptions(prof)
	opts.CompressDepth = 1
	opts.SheetFrames = 21 // group + index slot, no catalog
	opts.Index = true
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < arch.Volume.Sheets(); s++ {
		if err := arch.Volume.Destroy(s, 0); err != nil { // the index slot
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		got, st, err := RestoreRange(arch.Volume, arch.BootstrapText, 100, 500,
			RestoreOptions{Mode: RestoreNative, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got, data[100:600]) {
			t.Fatalf("workers=%d: fallback bytes differ", workers)
		}
		if st.IndexFallbacks == 0 {
			t.Fatalf("workers=%d: fallback not counted: %+v", workers, st)
		}
	}

	// A volume archived with no index at all falls back the same way.
	plain, err := CreateArchive(data, DefaultOptions(prof))
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := RestoreRange(plain.Volume, plain.BootstrapText, 0, 256,
		RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:256]) || st.IndexFallbacks == 0 {
		t.Fatalf("index-free fallback: %+v", st)
	}
}

// TestRestoreCatalogIndexReplica: with the index emblems destroyed but
// the catalogs alive, the query recovers the index from the catalog's
// compressed replica instead of falling back. Needs a frame large enough
// that the catalog's trim ladder keeps the replica.
func TestRestoreCatalogIndexReplica(t *testing.T) {
	l := emblem.Layout{DataW: 480, DataH: 360, PxPerModule: 2}
	prof := media.Profile{
		Name:   "replica-test",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
	}
	capacity := mocoder.Capacity(l)
	data := testPayload(10 * capacity)
	opts := DefaultOptions(prof)
	opts.Compress = false
	opts.GroupData = 4
	opts.SheetFrames = 9 // one 4+3 group + catalog + index slots
	opts.Catalog = true
	opts.Index = true
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Volume.Sheets() < 2 {
		t.Fatalf("want a multi-sheet volume, got %d sheets", arch.Volume.Sheets())
	}
	for s := 0; s < arch.Volume.Sheets(); s++ {
		if err := arch.Volume.Destroy(s, 1); err != nil { // the index slot
			t.Fatal(err)
		}
	}
	got, st, err := RestoreRange(arch.Volume, arch.BootstrapText, 0, 300,
		RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:300]) {
		t.Fatal("replica-indexed bytes differ")
	}
	if st.IndexFallbacks != 0 || st.CatalogFrames == 0 {
		t.Fatalf("replica not used: %+v", st)
	}
}

// TestListIndexReportsSections: ListIndex reads the index from a single
// probe and reports the dump's tables without decoding any payload.
func TestListIndexReportsSections(t *testing.T) {
	arch, data := indexedArchive(t, true)
	x, st, err := ListIndex(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if x.RawLen != len(data) || x.ArchiveID != arch.Manifest.ArchiveID || !x.Compress {
		t.Fatalf("index header: %+v", x)
	}
	secs, err := sqldump.Sections(data)
	if err != nil {
		t.Fatal(err)
	}
	tables := x.Tables()
	if len(tables) != len(secs) {
		t.Fatalf("index lists %d tables, dump has %d", len(tables), len(secs))
	}
	if st.GroupsDecoded != 0 || st.FramesScanned+st.FramesSkipped != arch.Volume.FrameCount() {
		t.Fatalf("list stats: %+v", st)
	}
}

// TestRestoreIndexedVolumeFull: an indexed volume still restores in full
// bit-exact — the index emblems are consumed out-of-band — in both
// native and emulated modes (the DBS1 seekable stream decodes through
// the archived DBDecode program block by block).
func TestRestoreIndexedVolumeFull(t *testing.T) {
	arch, data := indexedArchive(t, true)
	for _, mode := range []Mode{RestoreNative, RestoreDynaRisc} {
		got, st, err := RestoreVolume(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: mode})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("mode %s: full restore differs", mode)
		}
		if st.IndexFrames != arch.Volume.Sheets() {
			t.Fatalf("mode %s: index frames not tallied: %+v", mode, st)
		}
	}
}

// TestRestoreRangeDynaRisc: a range query under emulation runs the
// archived DBDecode program over only the overlapping restart blocks and
// still matches the input slice. It scans the index probe, the span's
// data frames and the data frames of every system group — no parity.
func TestRestoreRangeDynaRisc(t *testing.T) {
	arch, data := indexedArchive(t, true)
	got, st, err := RestoreRange(arch.Volume, arch.BootstrapText, 64, 512,
		RestoreOptions{Mode: RestoreDynaRisc})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[64:64+512]) {
		t.Fatal("emulated range differs from input slice")
	}
	if st.FramesSkipped == 0 {
		t.Fatalf("emulated query skipped nothing: %+v", st)
	}
	x, _, err := ListIndex(arch.Volume, arch.BootstrapText, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	capacity := mocoder.Capacity(arch.Options.Profile.Layout)
	first, last := spanChunks(x, capacity, 64, 512)
	system := max((x.SystemLen+capacity-1)/capacity, 1)
	if want := 1 + last - first + 1 + system; st.FramesScanned != want {
		t.Fatalf("scanned %d frames, want the probe + %d span + %d system data frames: %+v",
			st.FramesScanned, last-first+1, system, st)
	}
}

// TestSalvageIndexedVolume: the disaster path over an indexed volume —
// a shuffled bag with no bootstrap text — consumes the index emblems
// out-of-band, reports them in the ledger and still salvages bit-exact.
func TestSalvageIndexedVolume(t *testing.T) {
	arch, data := indexedArchive(t, false)
	order := make([]int, arch.Volume.Sheets())
	for s := range order {
		order[s] = (s + 1) % len(order) // rotated, so ordering is earned
	}
	bag := bagOf(t, arch.Volume, order...)
	got, rep, err := Salvage(bag, SalvageOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("indexed-volume salvage differs from input")
	}
	if !rep.Complete || rep.IndexFrames != arch.Volume.Sheets() {
		t.Fatalf("ledger %+v", rep)
	}
}

// TestEngineRangeMatchesOneShot: back-to-back range queries reusing
// pooled scan scratch repeat the first query byte for byte and stat for
// stat.
func TestEngineRangeMatchesOneShot(t *testing.T) {
	arch, data := indexedArchive(t, true)
	ro := RestoreOptions{Mode: RestoreNative, Workers: 2}
	want, wantSt, err := RestoreRange(arch.Volume, arch.BootstrapText, 128, 1024, ro)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, data[128:128+1024]) {
		t.Fatal("range differs from input slice")
	}
	for trial := 0; trial < 3; trial++ {
		got, st, err := RestoreRange(arch.Volume, arch.BootstrapText, 128, 1024, ro)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: range differs from the first", trial)
		}
		if !reflect.DeepEqual(st, wantSt) {
			t.Fatalf("trial %d: stats diverged: %+v vs %+v", trial, st, wantSt)
		}
	}
}

// Frame-granular queries: a query scans the index probe plus the data
// frames its stream span overlaps, and a group's other frames only when a
// planned frame fails. These tests run their repeated queries on a
// pre-scanned copy (prescan) and compare one scanner-included query with
// it, so the scanner runs once per frame; CI repeats them under the race
// detector, so the clean fixtures are built once per test binary.

// prescan returns v as its scanner reads it: Reprint renders every frame
// through v's scanner once, and the copy scans distortion-free. media.Tiny()
// has no writer distortion or bitonal quantisation and scans at frame
// size, so the copy's scans are the pixels v's scanner produces.
func prescan(t testing.TB, v *media.Volume) *media.Volume {
	t.Helper()
	pre, err := v.Reprint()
	if err != nil {
		t.Fatal(err)
	}
	pre.SetScanner(media.Distortions{})
	return pre
}

// frameFixture is an indexedArchive fixture with its pre-scanned copy,
// its index and its frame capacity.
type frameFixture struct {
	arch     *Archived
	data     []byte
	pre      *media.Volume
	x        *archindex.Index
	capacity int
}

var frameFixtures struct {
	sync.Mutex
	clean map[bool]*frameFixture // by compress
}

// cleanFixture returns the clean compressed or raw fixture, built on
// first use. Callers must not damage it; see damaged.
func cleanFixture(t *testing.T, compress bool) *frameFixture {
	t.Helper()
	frameFixtures.Lock()
	defer frameFixtures.Unlock()
	if f := frameFixtures.clean[compress]; f != nil {
		return f
	}
	arch, data := indexedArchive(t, compress)
	pre := prescan(t, arch.Volume)
	x, _, err := ListIndex(pre, arch.BootstrapText, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := &frameFixture{arch: arch, data: data, pre: pre, x: x, capacity: mocoder.Capacity(arch.Options.Profile.Layout)}
	if frameFixtures.clean == nil {
		frameFixtures.clean = map[bool]*frameFixture{}
	}
	frameFixtures.clean[compress] = f
	return f
}

// damaged returns a copy of f with frames locals of sheet destroyed,
// pre-scanned after the damage.
func (f *frameFixture) damaged(t *testing.T, sheet int, locals ...int) *frameFixture {
	t.Helper()
	arch := *f.arch
	arch.Volume = f.arch.Volume.Clone()
	for _, local := range locals {
		if err := arch.Volume.Destroy(sheet, local); err != nil {
			t.Fatal(err)
		}
	}
	d := *f
	d.arch, d.pre = &arch, prescan(t, arch.Volume)
	return &d
}

// spanChunks returns the first and last capacity-sized stream chunks a
// query of raw bytes [off, off+length) must read, computed from the
// index alone: the restart blocks the bytes overlap on a compressed
// volume, the bytes themselves on a raw one.
func spanChunks(x *archindex.Index, capacity, off, length int) (first, last int) {
	lo, hi := off, off+length
	if x.Compress {
		lo = -1
		for _, b := range x.Blocks {
			if b.RawOff < off+length && off < b.RawOff+b.RawLen {
				if lo < 0 {
					lo = b.CompOff
				}
				hi = b.CompOff + b.CompLen
			}
		}
	}
	return lo / capacity, (hi - 1) / capacity
}

// boundaryBlock returns the restart block whose compressed bytes hold the
// first group boundary: its span reads the tail of group 0 and the head
// of group 1.
func boundaryBlock(t *testing.T, f *frameFixture) dbcoder.SeekBlock {
	t.Helper()
	boundary := f.x.GroupData * f.capacity
	for _, b := range f.x.Blocks {
		if b.CompOff <= boundary && boundary < b.CompOff+b.CompLen {
			return b
		}
	}
	t.Fatal("no restart block holds the first group boundary")
	return dbcoder.SeekBlock{}
}

// spanQuery is one frame-granular query: a raw range, or a table by name.
type spanQuery struct {
	table       string
	off, length int
}

func (q spanQuery) run(v *media.Volume, bootstrapText string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	if q.table != "" {
		return RestoreTable(v, bootstrapText, q.table, ro)
	}
	return RestoreRange(v, bootstrapText, q.off, q.length, ro)
}

// runPrescanned runs q on the pre-scanned copy pre at workers 1, 2 and 8
// and on the scanner-included volume arch.Volume at workers 2. Every run
// must return the same bytes, stats and error text, which it returns.
func runPrescanned(t *testing.T, arch *Archived, pre *media.Volume, q spanQuery, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	t.Helper()
	ro.Workers = 2
	want, wantSt, wantErr := q.run(arch.Volume, arch.BootstrapText, ro)
	for _, workers := range []int{1, 2, 8} {
		ro.Workers = workers
		got, st, err := q.run(pre, arch.BootstrapText, ro)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) || !reflect.DeepEqual(st, wantSt) {
			t.Fatalf("%+v workers=%d: pre-scanned query diverges from the scanner-included one:\n got %v %+v\nwant %v %+v",
				q, workers, err, st, wantErr, wantSt)
		}
	}
	return want, wantSt, wantErr
}

// TestRestoreRangeFramesSpanOnly: on clean compressed and raw volumes a
// query scans one index probe plus exactly the data frames its stream
// span overlaps — no parity, no other data frame — and none fails.
func TestRestoreRangeFramesSpanOnly(t *testing.T) {
	for _, compress := range []bool{true, false} {
		f := cleanFixture(t, compress)
		secs, err := sqldump.Sections(f.data)
		if err != nil {
			t.Fatal(err)
		}
		// A range across the first group boundary; on a compressed volume
		// it also crosses into the restart block holding that boundary.
		boundary := f.x.GroupData * f.capacity
		if compress {
			boundary = boundaryBlock(t, f).RawOff
		}
		n := len(f.data)
		queries := []spanQuery{
			{off: 0, length: 300},
			{off: n - 300, length: 300},
			{off: boundary - 100, length: 200},
			{off: n / 2, length: 1},
			{table: secs[0].Table, off: secs[0].Off, length: secs[0].Len},
			{table: secs[1].Table, off: secs[1].Off, length: secs[1].Len},
		}
		for _, q := range queries {
			got, st, err := runPrescanned(t, f.arch, f.pre, q, RestoreOptions{Mode: RestoreNative})
			if err != nil {
				t.Fatalf("compress=%v %+v: %v", compress, q, err)
			}
			if !bytes.Equal(got, f.data[q.off:q.off+q.length]) {
				t.Fatalf("compress=%v %+v: bytes differ from the input", compress, q)
			}
			first, last := spanChunks(f.x, f.capacity, q.off, q.length)
			if want := 1 + last - first + 1; st.FramesScanned != want || st.FramesFailed != 0 ||
				st.FramesScanned+st.FramesSkipped != f.pre.FrameCount() || st.IndexFallbacks != 0 {
				t.Fatalf("compress=%v %+v: scanned %d (want the probe + %d span frames), stats %+v",
					compress, q, st.FramesScanned, want-1, st)
			}
		}
	}
}

// TestRestoreRangeFramesDamageOutsideSpan: a parity frame and a data
// frame destroyed outside the span, in a group the query reads in part,
// are never scanned, so nothing fails and nothing needs recovery.
func TestRestoreRangeFramesDamageOutsideSpan(t *testing.T) {
	f := cleanFixture(t, true)
	q := spanQuery{off: 0, length: 300}
	first, last := spanChunks(f.x, f.capacity, q.off, q.length)
	if last >= 10 {
		t.Fatalf("span chunks %d..%d reach data position 10", first, last)
	}
	// Group 0 opens sheet 0 after its catalog and index slots.
	f = f.damaged(t, 0, 2+10, 2+f.x.GroupData+1)
	got, st, err := runPrescanned(t, f.arch, f.pre, q, RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, f.data[:300]) {
		t.Fatal("bytes differ from the input")
	}
	if st.FramesFailed != 0 || st.GroupsRecovered != 0 || st.FramesScanned != 1+last-first+1 {
		t.Fatalf("damage outside the span was read: %+v", st)
	}
}

// TestRestoreRangeFramesPlannedLoss: a destroyed planned frame sends its
// group to a whole read — reported, recovered and counted as a full
// restore would — while the query's other group stays read in part, and
// no frame is scanned twice.
func TestRestoreRangeFramesPlannedLoss(t *testing.T) {
	f := cleanFixture(t, true)
	b := boundaryBlock(t, f)
	q := spanQuery{off: b.RawOff, length: b.RawLen}
	first, last := spanChunks(f.x, f.capacity, q.off, q.length)
	if first >= f.x.GroupData || last < f.x.GroupData {
		t.Fatalf("span chunks %d..%d do not cross the group boundary", first, last)
	}
	f = f.damaged(t, 0, 2+first) // a planned frame of group 0
	got, st, err := runPrescanned(t, f.arch, f.pre, q, RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, f.data[q.off:q.off+q.length]) {
		t.Fatal("bytes differ from the input")
	}
	size := f.x.GroupData + f.x.GroupParity
	group1 := last - f.x.GroupData + 1 // group 1's planned frames
	want := []GroupReport{
		{Kind: "data", Frames: size, Missing: 1, Recovered: true},
		{ID: 1, Sheet: 1, Kind: "data", Frames: group1},
	}
	if !reflect.DeepEqual(st.Groups, want) {
		t.Fatalf("groups: got %+v, want %+v", st.Groups, want)
	}
	if st.FramesScanned != 1+size+group1 || st.FramesFailed != 1 || st.GroupsRecovered != 1 {
		t.Fatalf("want the probe + %d + %d frames scanned once each, 1 failed: %+v", size, group1, st)
	}

	// Cancelled at staggered points — in either executor run or between
	// them — the query returns cleanly or with both ErrRestore and the
	// context's error, and leaves no goroutine behind.
	before := runtime.NumGoroutine()
	for _, delay := range []time.Duration{0, time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond, 30 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		_, _, err := q.run(f.pre, f.arch.BootstrapText, RestoreOptions{Mode: RestoreNative, Workers: 2, Context: ctx})
		timer.Stop()
		cancel()
		if err != nil && !(errors.Is(err, ErrRestore) && errors.Is(err, context.Canceled)) {
			t.Fatalf("cancelled after %v: got %v, want ErrRestore wrapping context.Canceled", delay, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestRestoreRangeFramesBeyondParity: four frames of one group destroyed,
// one of them planned. The strict query fails; the Partial query returns
// the full Partial restore's slice and loses the whole group's bytes, as
// a whole-group read does, while the clean group before it is read in
// part.
func TestRestoreRangeFramesBeyondParity(t *testing.T) {
	f := cleanFixture(t, false) // raw: Partial holes stay local
	// The last data frame of group 0 and the first of group 1, which
	// opens sheet 1 after its catalog and index slots.
	q := spanQuery{off: f.x.GroupData*f.capacity - 100, length: 300}
	f = f.damaged(t, 1, 2+0, 2+5, 2+10, 2+f.x.GroupData+1)
	if _, _, err := runPrescanned(t, f.arch, f.pre, q, RestoreOptions{Mode: RestoreNative}); !errors.Is(err, ErrRestore) {
		t.Fatalf("strict query: got %v, want ErrRestore", err)
	}

	var full bytes.Buffer
	if _, err := RestoreToWriter(&full, f.pre, f.arch.BootstrapText, RestoreOptions{Mode: RestoreNative, Partial: true}); err != nil {
		t.Fatal(err)
	}
	got, st, err := runPrescanned(t, f.arch, f.pre, q, RestoreOptions{Mode: RestoreNative, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full.Bytes()[q.off:q.off+q.length]) {
		t.Fatal("partial query differs from the full partial restore's slice")
	}
	size := f.x.GroupData + f.x.GroupParity
	want := []GroupReport{
		{Kind: "raw", Frames: 1},
		{ID: 1, Sheet: 1, Kind: "raw", Frames: size, Missing: 4, Lost: true},
	}
	if !reflect.DeepEqual(st.Groups, want) || st.GroupsLost != 1 ||
		st.BytesLost != f.x.GroupData*f.capacity || st.FramesScanned != 1+1+size {
		t.Fatalf("got %+v, want groups %+v and %d bytes lost", st, want, f.x.GroupData*f.capacity)
	}
}
