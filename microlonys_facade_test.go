package microlonys_test

import (
	"bytes"
	"strings"
	"testing"

	"microlonys"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/media"
)

// facadeProfile is a small clean medium for public-API tests.
func facadeProfile() media.Profile {
	l := emblem.Layout{DataW: 100, DataH: 80, PxPerModule: 3}
	return media.Profile{
		Name:   "facade-test",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
	}
}

func TestFacadeArchiveRestore(t *testing.T) {
	data := []byte(strings.Repeat("INSERT INTO nation VALUES (0, 'ALGERIA');\n", 200))
	opts := microlonys.DefaultOptions(facadeProfile())
	arch, err := microlonys.Archive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Manifest.RawLen != len(data) {
		t.Fatalf("manifest raw len %d", arch.Manifest.RawLen)
	}
	if arch.BootstrapText == "" || arch.Bootstrap == nil {
		t.Fatal("no bootstrap document")
	}
	got, st, err := microlonys.Restore(arch.Medium, arch.BootstrapText, microlonys.RestoreNative)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("facade round trip mismatch")
	}
	if st.Mode != microlonys.RestoreNative {
		t.Fatalf("stats mode %v", st.Mode)
	}
}

// TestFacadeStreamingEnds drives the io.Reader/io.Writer pipeline ends
// through the public API: a multi-sheet raw archive from a stream,
// restored to a writer, with a carrier lost in between and Partial mode
// reporting the damage.
func TestFacadeStreamingEnds(t *testing.T) {
	prof := facadeProfile()
	data := []byte(strings.Repeat("INSERT INTO region VALUES (2, 'ASIA');\n", 500))
	opts := microlonys.DefaultOptions(prof)
	opts.Compress = false
	opts.SheetFrames = 20

	arch, err := microlonys.ArchiveReader(bytes.NewReader(data), opts)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Volume == nil || arch.Volume.Sheets() < 2 {
		t.Fatalf("want a multi-sheet volume, got %+v", arch.Manifest)
	}
	if arch.Manifest.Sheets != arch.Volume.Sheets() {
		t.Fatal("manifest sheet count")
	}

	// Streamed restore equals the input bit-exactly.
	var buf bytes.Buffer
	st, err := microlonys.RestoreTo(&buf, arch.Volume, arch.BootstrapText,
		microlonys.RestoreOptions{Mode: microlonys.RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("streamed restore differs from input")
	}
	if len(st.Sheets) != arch.Volume.Sheets() || len(st.Groups) != arch.Manifest.Groups {
		t.Fatalf("stats shape: %d sheet and %d group reports", len(st.Sheets), len(st.Groups))
	}

	// Lose the last carrier; the survivors restore in Partial mode.
	lost := arch.Volume.Sheets() - 1
	if err := arch.Volume.DestroySheet(lost); err != nil {
		t.Fatal(err)
	}
	out, st, err := microlonys.RestoreVolume(arch.Volume, arch.BootstrapText,
		microlonys.RestoreOptions{Mode: microlonys.RestoreNative, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(data) {
		t.Fatalf("partial output %d bytes, want %d", len(out), len(data))
	}
	if st.BytesLost == 0 || st.Sheets[lost].FramesFailed == 0 {
		t.Fatalf("carrier loss not reported: %+v", st)
	}
}

func TestFacadeModesAreDistinct(t *testing.T) {
	modes := map[microlonys.Mode]string{
		microlonys.RestoreNative:   "native",
		microlonys.RestoreDynaRisc: "dynarisc",
		microlonys.RestoreNested:   "nested",
	}
	if len(modes) != 3 {
		t.Fatal("modes collide")
	}
	for m, want := range modes {
		if m.String() != want {
			t.Fatalf("%v != %s", m, want)
		}
	}
}

func TestFacadeDefaultOptions(t *testing.T) {
	opts := microlonys.DefaultOptions(media.Paper())
	if opts.GroupData != 17 || mocoder.GroupParity != 3 {
		t.Fatalf("default outer code %d+%d, want the paper's 17+3", opts.GroupData, mocoder.GroupParity)
	}
	if !opts.Compress {
		t.Fatal("DBCoder should be on by default")
	}
	if opts.Profile.Name != media.Paper().Name {
		t.Fatal("profile not threaded through")
	}
}
