package core

import (
	"bytes"
	"testing"

	"microlonys/internal/dbcoder"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/media"
)

// archivedStream reads an archive's data section back: the data frames
// of a distortion-free copy of its volume, decoded natively in scan order
// until they carry the manifest's stream length.
func archivedStream(t *testing.T, arch *Archived) []byte {
	t.Helper()
	v := arch.Volume.Clone()
	v.SetScanner(media.Distortions{})
	var stream []byte
	for i := 0; i < v.FrameCount() && len(stream) < arch.Manifest.StreamLen; i++ {
		img, err := v.ScanFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		payload, hdr, _, err := mocoder.Decode(img, arch.Options.Profile.Layout)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if hdr.Kind == emblem.KindData {
			stream = append(stream, payload...)
		}
	}
	if len(stream) != arch.Manifest.StreamLen {
		t.Fatalf("data frames carry %d bytes, manifest says %d", len(stream), arch.Manifest.StreamLen)
	}
	return stream
}

// TestArchiveSeekableMatchesDBCoder: an indexed archive compresses its
// restart blocks as frame-slot tasks, and the stream it archives equals
// the serial dbcoder.CompressSeekableDepth byte for byte — empty input,
// one block, many blocks with a short last one, at the default and an
// explicit IndexBlockBytes — at workers 1, 2 and 8.
func TestArchiveSeekableMatchesDBCoder(t *testing.T) {
	prof := media.Tiny()
	defaultBlock := mocoder.GroupData * mocoder.Capacity(prof.Layout) // Options.IndexBlockBytes' default
	cases := []struct {
		name       string
		n          int // input bytes
		blockBytes int // Options.IndexBlockBytes
		blocks     int // restart blocks the input cuts into
	}{
		{"empty", 0, 0, 0},
		{"one-block-default", 3000, 0, 1},
		{"many-blocks-default", 30000, 0, 5},
		{"many-blocks-explicit", 10500, 1000, 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := testPayload(tc.n)
			block := tc.blockBytes
			if block == 0 {
				block = defaultBlock
			}
			want := dbcoder.CompressSeekableDepth(data, dbcoder.DefaultDepth, block)
			if blocks, err := dbcoder.SeekTable(want); err != nil || len(blocks) != tc.blocks {
				t.Fatalf("reference has %d blocks (%v), want %d", len(blocks), err, tc.blocks)
			}
			for _, workers := range []int{1, 2, 8} {
				opts := DefaultOptions(prof)
				opts.Index = true
				opts.IndexBlockBytes = tc.blockBytes
				opts.Workers = workers
				arch, err := CreateArchive(data, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := archivedStream(t, arch); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: archived stream (%d B) differs from CompressSeekableDepth (%d B)",
						workers, len(got), len(want))
				}
			}
		})
	}
}
