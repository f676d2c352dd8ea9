package core

// Differential and scenario tests for the multi-volume streaming
// pipeline: the streaming planner and group-incremental assembler are
// pinned byte-identical to the seed buffered formulations
// (reference_test.go), and the new carrier-loss scenarios — destroy an
// entire sheet, restore the rest — are asserted in both directions.

import (
	"bytes"
	"context"
	"errors"
	"io"
	mrand "math/rand"
	"reflect"
	"strings"
	"testing"

	"microlonys/internal/bootstrap"
	"microlonys/internal/dbcoder"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/media"
)

// collectPlan drives the streaming planner over data exactly as
// CreateArchiveStream does, collecting the emitted group plans instead of
// encoding them.
func collectPlan(t *testing.T, data []byte, opts Options) *framePlan {
	t.Helper()
	arch, plans, err := planOnly(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := &framePlan{man: arch}
	for _, gp := range plans {
		out.tasks = append(out.tasks, gp.tasks...)
	}
	return out
}

// planOnly runs CreateArchiveStream's section resolution and planner with
// a collecting emit callback (no rasterization).
func planOnly(data []byte, opts Options) (Manifest, []groupPlan, error) {
	if opts.GroupData <= 0 {
		opts.GroupData = mocoder.GroupData
	}
	capacity := mocoder.Capacity(opts.Profile.Layout)
	var plans []groupPlan
	emit := func(gp groupPlan) error { plans = append(plans, gp); return nil }

	// Mirror CreateArchiveStream's section resolution.
	var man Manifest
	var sections []archiveSection
	if opts.Compress {
		depth := opts.CompressDepth
		if depth <= 0 {
			depth = dbcoder.DefaultDepth
		}
		stream := dbcoder.CompressDepth(data, depth)
		man.RawLen = len(data)
		man.StreamLen = len(stream)
		_, _, prog, err := archivedPrograms()
		if err != nil {
			return Manifest{}, nil, err
		}
		sys := bootstrap.MarshalDynaRisc(prog)
		man.SystemLen = len(sys)
		sections = []archiveSection{
			{emblem.KindData, bytes.NewReader(stream), len(stream)},
			{emblem.KindSystem, bytes.NewReader(sys), len(sys)},
		}
	} else {
		man.RawLen = len(data)
		man.StreamLen = len(data)
		sections = []archiveSection{{emblem.KindRaw, bytes.NewReader(data), len(data)}}
	}
	p, err := newPlanner(opts, capacity, man, sections)
	if err != nil {
		return Manifest{}, nil, err
	}
	if err := p.plan(sections, emit); err != nil {
		return Manifest{}, nil, err
	}
	return p.man, plans, nil
}

// TestPlannerMatchesReferenceSplit pins the streaming planner to the seed
// buffered split stage: identical frame payloads, headers, order and
// manifest tallies for every section shape — empty streams, exact
// capacity multiples, short tails, multi-group sections — compressed and
// raw.
func TestPlannerMatchesReferenceSplit(t *testing.T) {
	prof := media.Tiny()
	capacity := mocoder.Capacity(prof.Layout)
	sizes := []int{0, 1, capacity - 1, capacity, capacity + 1,
		17 * capacity, 17*capacity + 1, 40*capacity + 123}
	for _, compress := range []bool{false, true} {
		for _, n := range sizes {
			opts := DefaultOptions(prof)
			opts.Compress = compress
			data := testPayload(n)

			want, err := splitStage(data, opts, capacity)
			if err != nil {
				t.Fatal(err)
			}
			got := collectPlan(t, data, opts)

			// The streaming manifest additionally reports Sheets; the
			// planner itself leaves it zero, so the comparison is direct.
			if got.man != want.man {
				t.Fatalf("compress=%v n=%d: manifest %+v != reference %+v", compress, n, got.man, want.man)
			}
			if len(got.tasks) != len(want.tasks) {
				t.Fatalf("compress=%v n=%d: %d tasks, reference %d", compress, n, len(got.tasks), len(want.tasks))
			}
			for i := range got.tasks {
				if got.tasks[i].hdr != want.tasks[i].hdr {
					t.Fatalf("compress=%v n=%d frame %d: header %+v != reference %+v",
						compress, n, i, got.tasks[i].hdr, want.tasks[i].hdr)
				}
				if !bytes.Equal(got.tasks[i].payload, want.tasks[i].payload) {
					t.Fatalf("compress=%v n=%d frame %d: payload differs", compress, n, i)
				}
			}
		}
	}
}

// TestArchiveStreamMatchesReferenceMedium pins the full streaming archive
// (single unbounded sheet) against a medium written from the seed split
// stage's plan: the written-and-scanned-back pixels must be byte
// identical at any worker count — the acceptance differential for
// ArchiveReader vs the seed Archive path.
func TestArchiveStreamMatchesReferenceMedium(t *testing.T) {
	prof := media.Tiny()
	capacity := mocoder.Capacity(prof.Layout)
	data := testPayload(19*capacity + 57) // two groups, short tail

	for _, compress := range []bool{false, true} {
		opts := DefaultOptions(prof)
		opts.Compress = compress

		plan, err := splitStage(data, opts, capacity)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := encodeStage(context.Background(), plan.tasks, prof.Layout, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := media.New(prof)
		if err := ref.Write(frames); err != nil {
			t.Fatal(err)
		}
		want := mediumFingerprint(t, &Archived{Medium: ref})

		for _, workers := range []int{1, 3} {
			opts.Workers = workers
			arch, err := CreateArchiveStream(bytes.NewReader(data), opts)
			if err != nil {
				t.Fatal(err)
			}
			if arch.Medium == nil || arch.Volume.Sheets() != 1 {
				t.Fatalf("compress=%v: single unbounded sheet expected, got %d", compress, arch.Volume.Sheets())
			}
			if arch.Manifest.Sheets != 1 {
				t.Fatalf("manifest sheets = %d", arch.Manifest.Sheets)
			}
			if !bytes.Equal(mediumFingerprint(t, arch), want) {
				t.Fatalf("compress=%v workers=%d: streamed archive differs from reference medium", compress, workers)
			}
		}
	}
}

// TestArchiveReaderUnsizedStream pins the buffering fallback: a reader
// with neither Len nor Seek (a pipe) must archive identically to the
// in-memory path.
func TestArchiveReaderUnsizedStream(t *testing.T) {
	prof := media.Tiny()
	data := testPayload(4000)
	opts := DefaultOptions(prof)
	opts.Compress = false

	want, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CreateArchiveStream(io.MultiReader(bytes.NewReader(data)), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest != want.Manifest {
		t.Fatalf("manifest %+v != %+v", got.Manifest, want.Manifest)
	}
	if !bytes.Equal(mediumFingerprint(t, got), mediumFingerprint(t, want)) {
		t.Fatal("unsized-stream archive differs from in-memory archive")
	}
}

// TestRestoreStreamMatchesReference pins the group-incremental restore to
// the seed buffered restore on a damaged single-sheet archive: identical
// bytes and identical headline stats, at several worker counts, native
// and emulated.
func TestRestoreStreamMatchesReference(t *testing.T) {
	data := testPayload(30000)
	arch, err := CreateArchive(data, DefaultOptions(media.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.Medium.Destroy(1); err != nil {
		t.Fatal(err)
	}
	if err := arch.Medium.Destroy(arch.Medium.FrameCount() - 2); err != nil {
		t.Fatal(err)
	}

	modes := []Mode{RestoreNative, RestoreDynaRisc}
	for _, mode := range modes {
		want, wantSt, err := referenceRestore(arch.Medium, arch.BootstrapText, RestoreOptions{Mode: mode, Workers: 1})
		if err != nil {
			t.Fatalf("mode %v: reference: %v", mode, err)
		}
		if !bytes.Equal(want, data) {
			t.Fatalf("mode %v: reference restore differs from input", mode)
		}
		for _, workers := range []int{1, 4} {
			got, st, err := RestoreWithOptions(arch.Medium, arch.BootstrapText, RestoreOptions{Mode: mode, Workers: workers})
			if err != nil {
				t.Fatalf("mode %v workers=%d: %v", mode, workers, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("mode %v workers=%d: streamed restore differs from reference", mode, workers)
			}
			if st.FramesScanned != wantSt.FramesScanned || st.FramesFailed != wantSt.FramesFailed ||
				st.GroupsRecovered != wantSt.GroupsRecovered || st.BytesCorrected != wantSt.BytesCorrected {
				t.Fatalf("mode %v workers=%d: stats %+v != reference %+v", mode, workers, st, wantSt)
			}
		}
		if testing.Short() && mode == RestoreNative {
			continue
		}
	}
}

// TestRestoreDamagedFramesMatchesReference pins the fast scan path on
// frames that are damaged but recoverable — heavy jitter and noise drive
// the inner code through corrections, clock-violation erasure hints and
// the errors-only retry — against the seed reference restore, bytes and
// stats, per worker count.
func TestRestoreDamagedFramesMatchesReference(t *testing.T) {
	data := testPayload(30000)
	arch, err := CreateArchive(data, DefaultOptions(media.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	// Degrade a few frames short of destruction, and destroy one outright
	// so the group recovery runs too.
	for _, f := range []int{0, 3} {
		if err := arch.Medium.Damage(f, media.Distortions{RowJitterPx: 2.2, Noise: 14, DustSpecks: 25, Seed: int64(f) + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := arch.Medium.Destroy(5); err != nil {
		t.Fatal(err)
	}

	want, wantSt, err := referenceRestore(arch.Medium, arch.BootstrapText, RestoreOptions{Mode: RestoreNative, Workers: 1})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if !bytes.Equal(want, data) {
		t.Fatal("reference restore differs from input")
	}
	if wantSt.BytesCorrected == 0 {
		t.Fatal("damage produced no inner-code corrections; the scenario is too gentle to pin anything")
	}
	for _, workers := range []int{1, 4} {
		got, st, err := RestoreWithOptions(arch.Medium, arch.BootstrapText, RestoreOptions{Mode: RestoreNative, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: restore differs from reference", workers)
		}
		if st.FramesScanned != wantSt.FramesScanned || st.FramesFailed != wantSt.FramesFailed ||
			st.GroupsRecovered != wantSt.GroupsRecovered || st.BytesCorrected != wantSt.BytesCorrected {
			t.Fatalf("workers=%d: stats %+v != reference %+v", workers, st, wantSt)
		}
	}
}

// TestRestoreToMatchesRestore pins the two public ends against each other
// on a multi-sheet archive: RestoreTo's streamed bytes equal
// RestoreVolume's buffered bytes, and the stats — including the per-sheet
// and per-group reports — are deeply equal at every worker count.
func TestRestoreToMatchesRestore(t *testing.T) {
	prof := media.Tiny()
	capacity := mocoder.Capacity(prof.Layout)
	data := testPayload(40 * capacity) // 3 raw groups
	opts := DefaultOptions(prof)
	opts.Compress = false
	opts.SheetFrames = 20
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Volume.Sheets() < 3 {
		t.Fatalf("want >=3 sheets, got %d", arch.Volume.Sheets())
	}
	// Damage across sheets so recovery stats are non-trivial.
	if err := arch.Volume.Destroy(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := arch.Volume.Destroy(1, 5); err != nil {
		t.Fatal(err)
	}

	ref, refSt, err := RestoreVolume(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreNative, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, data) {
		t.Fatal("buffered volume restore differs from input")
	}
	for _, workers := range []int{1, 2, 5, 0} {
		var buf bytes.Buffer
		st, err := RestoreToWriter(&buf, arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreNative, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("workers=%d: streamed bytes differ from buffered", workers)
		}
		if !reflect.DeepEqual(st, refSt) {
			t.Fatalf("workers=%d: stats %+v != serial %+v", workers, st, refSt)
		}
	}
}

// TestMultiSheetPlacement verifies the carrier contract end to end: with
// SheetFrames set, groups land whole on sheets (every frame of a group
// decodes to the same sheet) and the manifest counts the cut sheets.
func TestMultiSheetPlacement(t *testing.T) {
	prof := media.Tiny()
	capacity := mocoder.Capacity(prof.Layout)
	data := testPayload(40 * capacity)
	opts := DefaultOptions(prof)
	opts.Compress = false
	opts.SheetFrames = 23 // not a multiple of the 20-frame group: forces gaps
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Manifest.Sheets != arch.Volume.Sheets() {
		t.Fatalf("manifest sheets %d != volume %d", arch.Manifest.Sheets, arch.Volume.Sheets())
	}
	if arch.Volume.Sheets() < 3 {
		t.Fatalf("want >=3 sheets, got %d", arch.Volume.Sheets())
	}
	if arch.Medium != nil {
		t.Fatal("multi-sheet archive must not alias a single medium")
	}

	// Decode every frame's header and map groups to sheets.
	groupSheet := map[int]int{}
	for s := 0; s < arch.Volume.Sheets(); s++ {
		sheet, err := arch.Volume.Sheet(s)
		if err != nil {
			t.Fatal(err)
		}
		if opts.SheetFrames > 0 && sheet.FrameCount() > opts.SheetFrames {
			t.Fatalf("sheet %d holds %d frames, cap %d", s, sheet.FrameCount(), opts.SheetFrames)
		}
		for i := 0; i < sheet.FrameCount(); i++ {
			scan, err := sheet.ScanFrame(i)
			if err != nil {
				t.Fatal(err)
			}
			_, hdr, _, err := mocoder.Decode(scan, prof.Layout)
			if err != nil {
				t.Fatalf("sheet %d frame %d: %v", s, i, err)
			}
			gid := int(hdr.GroupID)
			if prev, ok := groupSheet[gid]; ok && prev != s {
				t.Fatalf("group %d straddles sheets %d and %d", gid, prev, s)
			}
			groupSheet[gid] = s
		}
	}
	if len(groupSheet) != arch.Manifest.Groups {
		t.Fatalf("saw %d groups, manifest says %d", len(groupSheet), arch.Manifest.Groups)
	}

	got, _, err := RestoreVolume(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-sheet restore differs from input")
	}
}

// TestSheetFramesBelowGroupRejected: a sheet must hold at least one whole
// group, or no group could ever be placed.
func TestSheetFramesBelowGroupRejected(t *testing.T) {
	opts := DefaultOptions(media.Tiny())
	opts.SheetFrames = 19 // 17+3 = 20 needed
	if _, err := CreateArchive(testPayload(1000), opts); err == nil {
		t.Fatal("sheet capacity below group size accepted")
	}
}

// TestDestroyedSheetIsFatal asserts the acceptance criterion's negative
// half: a destroyed sheet whose groups live only there is beyond the
// outer code — strict restore must fail with ErrRestore even though every
// other sheet is intact.
func TestDestroyedSheetIsFatal(t *testing.T) {
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
	if arch.Volume.Sheets() < 3 {
		t.Fatalf("want >=3 sheets, got %d", arch.Volume.Sheets())
	}
	if err := arch.Volume.DestroySheet(1); err != nil {
		t.Fatal(err)
	}
	_, _, err = RestoreVolume(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreNative})
	if !errors.Is(err, ErrRestore) {
		t.Fatalf("restore after carrier loss: got %v, want ErrRestore", err)
	}
}

// TestCrossSheetFrameLossRecovers asserts the positive half: spreading
// the same number of destroyed frames across sheets — at most three per
// group — restores bit-exactly, with the per-sheet stats recording each
// sheet's recovery.
func TestCrossSheetFrameLossRecovers(t *testing.T) {
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
	// Three frames per group on the full sheets, the parity limit.
	for _, loss := range []struct{ sheet, frame int }{
		{0, 0}, {0, 7}, {0, 19}, {1, 3}, {1, 11}, {1, 18}, {2, 4},
	} {
		if err := arch.Volume.Destroy(loss.sheet, loss.frame); err != nil {
			t.Fatal(err)
		}
	}
	got, st, err := RestoreVolume(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restore after cross-sheet loss differs from input")
	}
	if st.GroupsRecovered != 3 || st.GroupsLost != 0 {
		t.Fatalf("groups recovered = %d lost = %d, want 3 and 0", st.GroupsRecovered, st.GroupsLost)
	}
	for s, want := range []int{3, 3, 1} {
		if st.Sheets[s].FramesFailed != want || st.Sheets[s].GroupsRecovered != 1 {
			t.Fatalf("sheet %d report %+v, want %d failed frames and 1 recovered group", s, st.Sheets[s], want)
		}
	}
	if len(st.Groups) != 3 {
		t.Fatalf("group reports: %d, want 3", len(st.Groups))
	}
	for i, g := range st.Groups {
		if g.ID != i || g.Sheet != i || !g.Recovered || g.Lost {
			t.Fatalf("group report %d: %+v", i, g)
		}
	}
}

// TestPartialRestoreAfterSheetLoss is the new expressible scenario:
// destroy a whole carrier, restore the survivors. Partial mode zero-fills
// the lost sheet's bytes (offsets hold) and the stats name exactly what
// was lost, identically at any worker count.
func TestPartialRestoreAfterSheetLoss(t *testing.T) {
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
	if err := arch.Volume.DestroySheet(1); err != nil {
		t.Fatal(err)
	}

	got, st, err := RestoreVolume(arch.Volume, arch.BootstrapText,
		RestoreOptions{Mode: RestoreNative, Partial: true})
	if err != nil {
		t.Fatalf("partial restore: %v", err)
	}
	if len(got) != len(data) {
		t.Fatalf("partial output %d bytes, want %d (zero-filled)", len(got), len(data))
	}
	// Sheet 0 carried group 0 = chunks [0,17); sheet 1 group 1 = chunks
	// [17,34); sheet 2 group 2 = the tail. Survivors bit-exact, the lost
	// group zeroed.
	lo, hi := 17*capacity, 34*capacity
	if !bytes.Equal(got[:lo], data[:lo]) || !bytes.Equal(got[hi:], data[hi:]) {
		t.Fatal("surviving groups not bit-exact at their offsets")
	}
	if !bytes.Equal(got[lo:hi], make([]byte, hi-lo)) {
		t.Fatal("lost group's bytes not zero-filled")
	}
	if st.GroupsLost != 1 || st.FramesLost != 20 || st.BytesLost != hi-lo {
		t.Fatalf("loss stats: %+v", st)
	}
	// The per-group report stays complete in group order, the lost
	// carrier's group included.
	if len(st.Groups) != arch.Manifest.Groups {
		t.Fatalf("group reports: %d, want %d", len(st.Groups), arch.Manifest.Groups)
	}
	if g := st.Groups[1]; g.ID != 1 || g.Sheet != 1 || !g.Lost || g.Recovered {
		t.Fatalf("lost group report: %+v", g)
	}
	sh := st.Sheets[1]
	if sh.FramesFailed != 20 || sh.FramesLost != 20 || sh.GroupsLost != 1 {
		t.Fatalf("sheet 1 report %+v", sh)
	}
	if st.Sheets[0].FramesFailed != 0 || st.Sheets[2].FramesFailed != 0 {
		t.Fatal("surviving sheets reported failures")
	}

	// Identical bytes and stats at any worker count.
	for _, workers := range []int{2, 0} {
		got2, st2, err := RestoreVolume(arch.Volume, arch.BootstrapText,
			RestoreOptions{Mode: RestoreNative, Partial: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got2, got) {
			t.Fatalf("workers=%d: partial bytes differ", workers)
		}
		if !reflect.DeepEqual(st2, st) {
			t.Fatalf("workers=%d: partial stats differ:\n%+v\n%+v", workers, st2, st)
		}
	}
}

// TestPartialRestoreLeadingSheetLoss pins the deferred zero-fill: when
// the FIRST carrier is the one destroyed, no section sink is open when
// the lost range surfaces, so the fill is owed until the next surviving
// group resolves the section — the survivors must still land at their
// archive offsets, with the lost group's bytes zeroed at the front.
func TestPartialRestoreLeadingSheetLoss(t *testing.T) {
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
	if err := arch.Volume.DestroySheet(0); err != nil {
		t.Fatal(err)
	}
	got, st, err := RestoreVolume(arch.Volume, arch.BootstrapText,
		RestoreOptions{Mode: RestoreNative, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatalf("partial output %d bytes, want %d", len(got), len(data))
	}
	lo := 17 * capacity
	if !bytes.Equal(got[:lo], make([]byte, lo)) {
		t.Fatal("leading lost group not zero-filled")
	}
	if !bytes.Equal(got[lo:], data[lo:]) {
		t.Fatal("survivors shifted off their archive offsets")
	}
	if st.BytesLost != lo || st.GroupsLost != 1 {
		t.Fatalf("loss stats: %+v", st)
	}
}

// TestPartialRestoreParityOnlySurvivors: a group whose data frames are
// all gone but whose parity frames survive is identifiable yet
// unknowable (no data member carries the section kind); Partial mode
// must still zero-fill its data bytes so later groups keep their
// offsets.
func TestPartialRestoreParityOnlySurvivors(t *testing.T) {
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
	for f := 0; f < 17; f++ { // group 1's data frames; parity 17..19 survive
		if err := arch.Volume.Destroy(1, f); err != nil {
			t.Fatal(err)
		}
	}
	got, st, err := RestoreVolume(arch.Volume, arch.BootstrapText,
		RestoreOptions{Mode: RestoreNative, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 17*capacity, 34*capacity
	if len(got) != len(data) {
		t.Fatalf("partial output %d bytes, want %d", len(got), len(data))
	}
	if !bytes.Equal(got[:lo], data[:lo]) || !bytes.Equal(got[hi:], data[hi:]) {
		t.Fatal("survivors shifted off their archive offsets")
	}
	if !bytes.Equal(got[lo:hi], make([]byte, hi-lo)) {
		t.Fatal("kind-unknown lost group not zero-filled")
	}
	if st.GroupsLost != 1 {
		t.Fatalf("loss stats: %+v", st)
	}
	// Strict mode refuses the same archive (seed behavior).
	if _, _, err := RestoreVolume(arch.Volume, arch.BootstrapText,
		RestoreOptions{Mode: RestoreNative}); !errors.Is(err, ErrRestore) {
		t.Fatalf("strict: got %v, want ErrRestore", err)
	}
}

// TestPlannerRejectsHeaderLimit: frame indices and group ids are uint16
// in the emblem header; the planner must refuse archives that would wrap.
func TestPlannerRejectsHeaderLimit(t *testing.T) {
	prof := media.Tiny()
	capacity := mocoder.Capacity(prof.Layout)
	opts := DefaultOptions(prof)
	// 3276 full 17+3 groups and one 13+3 group fill exactly 65536 frames;
	// one more chunk would wrap.
	fits := (3276*17 + 13) * capacity
	raw := func(n int) []archiveSection { return []archiveSection{{kind: emblem.KindRaw, total: n}} }
	if _, err := newPlanner(opts, capacity, Manifest{}, raw(fits)); err != nil {
		t.Fatalf("planner refused a 65536-frame archive: %v", err)
	}
	_, err := newPlanner(opts, capacity, Manifest{}, raw(fits+1))
	if err == nil || !strings.Contains(err.Error(), "65536") {
		t.Fatalf("planner accepted a wrapping frame index: %v", err)
	}
}

// TestRestoreEmptyMediumErrRestore is the regression test for restoring
// nothing: a zero-frame medium (and volume) must return ErrRestore, not
// panic or report empty success.
func TestRestoreEmptyMediumErrRestore(t *testing.T) {
	prof := media.Tiny()
	arch, err := CreateArchive(testPayload(100), DefaultOptions(prof))
	if err != nil {
		t.Fatal(err)
	}
	empty := media.New(prof)
	out, st, err := Restore(empty, arch.BootstrapText, RestoreNative)
	if !errors.Is(err, ErrRestore) {
		t.Fatalf("empty medium: got %v, want ErrRestore", err)
	}
	if out != nil {
		t.Fatal("empty medium returned data")
	}
	if st == nil || st.FramesScanned != 0 {
		t.Fatalf("empty medium stats: %+v", st)
	}

	vol := media.NewVolume(prof, 0)
	if _, _, err := RestoreVolume(vol, arch.BootstrapText, RestoreOptions{}); !errors.Is(err, ErrRestore) {
		t.Fatalf("empty volume: got %v, want ErrRestore", err)
	}
}

// TestMultiSheetEmulatedRestore runs the archived decoders over a
// multi-sheet compressed archive: the data group and the system group end
// up on different carriers and the emulated path reassembles across them.
func TestMultiSheetEmulatedRestore(t *testing.T) {
	prof := media.Tiny()
	// Incompressible data keeps the compressed stream over one group, so
	// the data and system sections are guaranteed to span sheets.
	data := make([]byte, 8000)
	mrand.New(mrand.NewSource(7)).Read(data)
	opts := DefaultOptions(prof)
	opts.SheetFrames = 20
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Volume.Sheets() < 2 {
		t.Fatalf("want the system emblems on their own sheet, got %d sheets", arch.Volume.Sheets())
	}
	got, st, err := RestoreVolume(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreDynaRisc})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-sheet emulated restore differs")
	}
	if st.Mode != RestoreDynaRisc {
		t.Fatal("stats mode")
	}
}
