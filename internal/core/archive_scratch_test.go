package core

import (
	"bytes"
	"context"
	"testing"

	"microlonys/internal/mocoder"
	"microlonys/media"
	"microlonys/raster"
)

// TestEncodeScratchMatchesFresh pins the per-worker encode scratch to the
// fresh-per-frame reference: every frame the encode stage rasterizes
// through a reused mocoder.Encoder must be byte-identical to a fresh
// package-level mocoder.Encode of the same planned task.
func TestEncodeScratchMatchesFresh(t *testing.T) {
	prof := media.Tiny()
	opts := DefaultOptions(prof)
	capacity := mocoder.Capacity(prof.Layout)
	plan, err := splitStage(testPayload(6*capacity), opts, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.tasks) < 3 {
		t.Fatalf("want several frames, got %d", len(plan.tasks))
	}
	for _, workers := range []int{1, 3} {
		frames, err := encodeStage(context.Background(), plan.tasks, prof.Layout, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, task := range plan.tasks {
			want, err := mocoder.Encode(task.payload, task.hdr, prof.Layout)
			if err != nil {
				t.Fatal(err)
			}
			if !raster.Equal(frames[i], want) {
				t.Fatalf("workers=%d frame %d: scratch-encoded frame differs from fresh encode (%d pixels)",
					workers, i, raster.DiffCount(frames[i], want))
			}
		}
	}
}

// TestArchiveScratchMatchesFreshMedium pins the full archive against a
// medium written from fresh-per-frame encodes of the same plan: the
// written (and scanned-back) media must be byte-identical, proving the
// reused scratch never leaks state between frames of a real archive.
func TestArchiveScratchMatchesFreshMedium(t *testing.T) {
	prof := media.Tiny()
	opts := DefaultOptions(prof)
	opts.Workers = 2
	data := testPayload(5 * mocoder.Capacity(prof.Layout))

	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := splitStage(data, opts, mocoder.Capacity(prof.Layout))
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*raster.Gray, len(plan.tasks))
	for i, task := range plan.tasks {
		if frames[i], err = mocoder.Encode(task.payload, task.hdr, prof.Layout); err != nil {
			t.Fatal(err)
		}
	}
	ref := media.New(prof)
	if err := ref.Write(frames); err != nil {
		t.Fatal(err)
	}
	refArch := &Archived{Medium: ref}

	if !bytes.Equal(mediumFingerprint(t, arch), mediumFingerprint(t, refArch)) {
		t.Fatal("archive through reused scratch differs from fresh-per-frame medium")
	}
}
