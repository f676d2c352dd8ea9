package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/internal/slots"
	"microlonys/media"
)

// The stage-pipeline differential suite: with more than one worker the
// archive encodes and stores every emblem as its own frame task, at
// positions the volume reserved for its group, and the restore decodes
// each window's frames in any order before its consumer takes them in
// plan order. Both must be byte-identical to the pre-pipeline formulation
// — every stage strictly in sequence per group — at workers 1, 2 and 8,
// including the Partial damaged-sheet path.

// prePipelineVolume is the pre-pipeline archive formulation, kept
// verbatim: the planner emits groups one at a time, each group is
// encoded to completion (the only parallel stage) and placed before the
// next is cut — no stage overlap, no channels.
func prePipelineVolume(t *testing.T, data []byte, opts Options, workers int) *media.Volume {
	t.Helper()
	_, plans, err := planOnly(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	vol := media.NewVolume(opts.Profile, opts.SheetFrames)
	scratch := make([]encScratch, slots.Workers(workers, 0))
	ctx := context.Background()
	for _, gp := range plans {
		frames, err := encodeFrames(ctx, gp.tasks, opts.Profile.Layout, workers, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if err := vol.WriteGroup(frames); err != nil {
			t.Fatal(err)
		}
	}
	return vol
}

// volumeFingerprint concatenates the stored pixels of every frame of
// every sheet: a clone read with a distortion-free scanner, which on a
// profile scanned at frame size (media.Tiny()) returns them unchanged.
// Any divergence in the placed frames shows up here.
func volumeFingerprint(t *testing.T, v *media.Volume) []byte {
	t.Helper()
	v = v.Clone()
	v.SetScanner(media.Distortions{})
	var buf bytes.Buffer
	for i := 0; i < v.FrameCount(); i++ {
		img, err := v.ScanFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(img.Pix)
	}
	return buf.Bytes()
}

// TestPipelinedArchiveMatchesPrePipeline pins the channel-pipelined
// archive to the pre-pipeline formulation at workers 1, 2 and 8 over a
// compressed multi-sheet archive: identical manifests, bootstrap text
// and written pixels on every sheet.
func TestPipelinedArchiveMatchesPrePipeline(t *testing.T) {
	// Incompressible data keeps the compressed stream big enough to span
	// several groups and sheets.
	data := make([]byte, 60000)
	rand.New(rand.NewSource(9)).Read(data)
	base := DefaultOptions(media.Tiny())
	base.SheetFrames = 40

	ref := volumeFingerprint(t, prePipelineVolume(t, data, base, 1))

	var first *Archived
	for _, workers := range []int{1, 2, 8} {
		opts := base
		opts.Workers = workers
		arch, err := CreateArchive(data, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if arch.Volume.Sheets() < 2 {
			t.Fatalf("workers=%d: want a multi-sheet volume, got %d sheets", workers, arch.Volume.Sheets())
		}
		if !bytes.Equal(volumeFingerprint(t, arch.Volume), ref) {
			t.Fatalf("workers=%d: written volume differs from the pre-pipeline formulation", workers)
		}
		if first == nil {
			first = arch
			continue
		}
		if arch.Manifest != first.Manifest {
			t.Fatalf("workers=%d: manifest %+v != workers=1 %+v", workers, arch.Manifest, first.Manifest)
		}
		if arch.BootstrapText != first.BootstrapText {
			t.Fatalf("workers=%d: bootstrap text differs", workers)
		}
	}
}

// TestArchiveReservedEmblemsAcrossWorkers extends the archive
// differential to the reserved positions: on a compressed multi-sheet
// archive with a catalog and an index slot on every sheet, whose catalog
// and index emblems encode as frame tasks beside each other, every stored
// frame (reserved positions included), the manifest and the Bootstrap
// text at workers 2 and 8 equal those at workers 1. Each sheet's reserved
// positions hold its catalog and index emblems, not placeholders.
func TestArchiveReservedEmblemsAcrossWorkers(t *testing.T) {
	data := make([]byte, 12000)
	rand.New(rand.NewSource(9)).Read(data)
	base := DefaultOptions(media.Tiny())
	base.SheetFrames = 24
	base.Catalog, base.Index = true, true

	var first *Archived
	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		opts := base
		opts.Workers = workers
		arch, err := CreateArchive(data, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if first == nil {
			first, ref = arch, volumeFingerprint(t, arch.Volume)
			continue
		}
		if !bytes.Equal(volumeFingerprint(t, arch.Volume), ref) {
			t.Fatalf("workers=%d: written volume differs from workers=1", workers)
		}
		if arch.Manifest != first.Manifest {
			t.Fatalf("workers=%d: manifest %+v != workers=1 %+v", workers, arch.Manifest, first.Manifest)
		}
		if arch.BootstrapText != first.BootstrapText {
			t.Fatalf("workers=%d: bootstrap text differs", workers)
		}
	}

	v := first.Volume.Clone()
	v.SetScanner(media.Distortions{})
	if v.Sheets() < 3 || first.Manifest.CatalogFrames != v.Sheets() || first.Manifest.IndexFrames != v.Sheets() {
		t.Fatalf("want catalog and index frames on each of >= 3 sheets, got %d sheets, manifest %+v", v.Sheets(), first.Manifest)
	}
	for s := 0; s < v.Sheets(); s++ {
		start, err := v.SheetStart(s)
		if err != nil {
			t.Fatal(err)
		}
		for slot, kind := range []emblem.Kind{emblem.KindCatalog, emblem.KindIndex} {
			img, err := v.ScanFrame(start + slot)
			if err != nil {
				t.Fatal(err)
			}
			_, hdr, _, err := mocoder.Decode(img, base.Profile.Layout)
			if err != nil || hdr.Kind != kind || int(hdr.Index) != s {
				t.Fatalf("sheet %d slot %d: kind %v index %d (err %v), want %v of sheet %d", s, slot, hdr.Kind, hdr.Index, err, kind, s)
			}
		}
	}
}

// TestPipelinedRestorePartialDamagedSheet pins the pipelined restore's
// Partial path at workers 1, 2 and 8 against a volume with a whole sheet
// destroyed plus scattered frame damage: identical restored bytes
// (zero-fill included) and identical RestoreStats — the loss accounting
// must not depend on decode scheduling.
func TestPipelinedRestorePartialDamagedSheet(t *testing.T) {
	data := testPayload(45000)
	opts := DefaultOptions(media.Tiny())
	// Raw archive: a compressed stream with a zero-filled hole fails at
	// DBDecode, which would collapse Partial to pass/fail.
	opts.Compress = false
	opts.SheetFrames = 20
	opts.Workers = 1
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Volume.Sheets() < 3 {
		t.Fatalf("want >= 3 sheets, got %d", arch.Volume.Sheets())
	}
	// A whole carrier gone, plus recoverable damage on a surviving sheet.
	if err := arch.Volume.DestroySheet(1); err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{0, 5} {
		if err := arch.Volume.Destroy(0, j); err != nil {
			t.Fatal(err)
		}
	}

	var refOut []byte
	var refSt *RestoreStats
	for _, workers := range []int{1, 2, 8} {
		var buf bytes.Buffer
		st, err := RestoreToWriter(&buf, arch.Volume, arch.BootstrapText,
			RestoreOptions{Mode: RestoreNative, Workers: workers, Partial: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.GroupsLost == 0 || st.BytesLost == 0 {
			t.Fatalf("workers=%d: sheet loss not reflected in stats: %+v", workers, st)
		}
		if len(buf.Bytes()) != len(data) {
			t.Fatalf("workers=%d: partial output %d bytes, want %d", workers, buf.Len(), len(data))
		}
		if refOut == nil {
			refOut, refSt = append([]byte(nil), buf.Bytes()...), st
			continue
		}
		if !bytes.Equal(buf.Bytes(), refOut) {
			t.Fatalf("workers=%d: partial restore bytes differ from workers=1", workers)
		}
		if !reflect.DeepEqual(st, refSt) {
			t.Fatalf("workers=%d: stats %+v != workers=1 %+v", workers, st, refSt)
		}
	}
}

// TestPipelinedArchiveErrorMatchesSerial pins the pipelined error path:
// an input that dies mid-plan (a reader that fails after the first group)
// must surface the same planner error at any worker count, with no hangs
// and no partial-group writes racing the failure.
func TestPipelinedArchiveErrorMatchesSerial(t *testing.T) {
	opts := DefaultOptions(media.Tiny())
	opts.Compress = false
	want := ""
	for _, workers := range []int{1, 2, 8} {
		opts.Workers = workers
		_, err := CreateArchiveStream(&failingReader{n: 30000, failAfter: 9000}, opts)
		if err == nil {
			t.Fatalf("workers=%d: want error from failing reader", workers)
		}
		if want == "" {
			want = err.Error()
			continue
		}
		if err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q", workers, err, want)
		}
	}
}

// failingReader reports Len() = n (so the raw planner sizes the section
// without buffering) but fails after failAfter bytes.
type failingReader struct {
	n, failAfter, read int
}

func (r *failingReader) Len() int { return r.n - r.read }

func (r *failingReader) Read(p []byte) (int, error) {
	if r.read >= r.failAfter {
		return 0, fmt.Errorf("synthetic media fault at byte %d", r.read)
	}
	if len(p) > r.failAfter-r.read {
		p = p[:r.failAfter-r.read]
	}
	for i := range p {
		p[i] = byte(r.read + i)
	}
	r.read += len(p)
	return len(p), nil
}
