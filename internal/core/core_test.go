package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"microlonys/internal/dbcoder"
	"microlonys/internal/emblem"
	"microlonys/media"
)

func testPayload(n int) []byte {
	var b bytes.Buffer
	for i := 0; b.Len() < n; i++ {
		b.WriteString("INSERT INTO lineitem VALUES (")
		b.WriteByte(byte('0' + i%10))
		b.WriteString(", 155190, 7706, 17, 21168.23, '1996-03-13');\n")
	}
	return b.Bytes()[:n]
}

func TestArchiveRestoreNative(t *testing.T) {
	data := testPayload(30000)
	arch, err := CreateArchive(data, DefaultOptions(media.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	if arch.Manifest.DataEmblems == 0 || arch.Manifest.SystemEmblems == 0 ||
		arch.Manifest.ParityEmblems == 0 {
		t.Fatalf("manifest: %+v", arch.Manifest)
	}
	if arch.Medium.FrameCount() != arch.Manifest.TotalFrames {
		t.Fatal("frame count mismatch")
	}
	got, st, err := Restore(arch.Medium, arch.BootstrapText, RestoreNative)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restored data differs")
	}
	if st.FramesFailed != 0 {
		t.Fatalf("frames failed: %d", st.FramesFailed)
	}
}

func TestArchiveRestoreWithDestroyedFrames(t *testing.T) {
	// §3.1: any three emblems per group of twenty may be lost.
	data := testPayload(200000) // enough for a sizeable group
	arch, err := CreateArchive(data, DefaultOptions(media.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	if arch.Manifest.Groups < 1 {
		t.Fatal("expected at least one group")
	}
	rng := rand.New(rand.NewSource(1))
	killed := 0
	for killed < 3 && killed < arch.Medium.FrameCount()-1 {
		i := rng.Intn(arch.Medium.FrameCount())
		if err := arch.Medium.Destroy(i); err == nil {
			killed++
		}
	}
	got, st, err := Restore(arch.Medium, arch.BootstrapText, RestoreNative)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restored data differs after frame loss")
	}
	if st.GroupsRecovered == 0 && killed > 0 {
		t.Log("note: destroyed frames may have clustered in one group")
	}
	t.Logf("killed=%d recoveredGroups=%d framesFailed=%d", killed, st.GroupsRecovered, st.FramesFailed)
}

func TestRestoreFailsBeyondParity(t *testing.T) {
	data := testPayload(5000)
	opts := DefaultOptions(media.Tiny())
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Destroy more frames of one group than parity covers. With a small
	// payload there is one data group: kill 4 frames.
	n := arch.Medium.FrameCount()
	kill := 4
	if kill > n {
		kill = n
	}
	for i := 0; i < kill; i++ {
		arch.Medium.Destroy(i)
	}
	if _, _, err := Restore(arch.Medium, arch.BootstrapText, RestoreNative); err == nil {
		t.Fatal("restore succeeded with group beyond parity")
	}
}

func TestArchiveRestoreRawMode(t *testing.T) {
	// Raw (uncompressed) archival — the paper's experiments stored the
	// 1.2MB dump directly and the 102KB logo image as raw payload.
	data := make([]byte, 20000)
	rand.New(rand.NewSource(2)).Read(data)
	opts := DefaultOptions(media.Tiny())
	opts.Compress = false
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Manifest.SystemEmblems != 0 {
		t.Fatal("raw mode should not write system emblems")
	}
	got, _, err := Restore(arch.Medium, arch.BootstrapText, RestoreNative)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("raw round trip failed")
	}
}

func TestArchiveRestoreDynaRisc(t *testing.T) {
	// The archived decoders do the work: MODecode reads the scans
	// (host-rectified per the Bootstrap), DBDecode (from the system
	// emblems) decompresses. The distorted profile exercises the full
	// preprocessing + emulated-decode path.
	data := testPayload(8000)
	arch, err := CreateArchive(data, DefaultOptions(media.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := Restore(arch.Medium, arch.BootstrapText, RestoreDynaRisc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("DynaRisc-mode restore differs")
	}
	if st.Mode != RestoreDynaRisc {
		t.Fatal("stats mode")
	}
}

func TestArchiveRestoreNested(t *testing.T) {
	if testing.Short() {
		t.Skip("nested emulation is slow; skipped in -short mode")
	}
	// The complete future-user path: VeRisc hosts DynaRisc hosts the
	// archived MODecode, driven purely from the Bootstrap text. Raw mode
	// keeps this to one group of four small frames — DBDecode under
	// nested emulation is covered separately (and without the pixel
	// volume) by dynprog's TestDBDecodeNested.
	l := emblem.Layout{DataW: 80, DataH: 64, PxPerModule: 2}
	p := media.Profile{
		Name:   "tiny-nested",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
	}
	data := []byte(strings.Repeat("SELECT 42; ", 15))
	opts := DefaultOptions(p)
	opts.Compress = false
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Manifest.TotalFrames != 4 { // 1 data + 3 parity
		t.Fatalf("frames = %d, want 4", arch.Manifest.TotalFrames)
	}
	got, _, err := Restore(arch.Medium, arch.BootstrapText, RestoreNested)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("nested-mode restore differs")
	}
}

// TestEmulatedOutputVerification is the regression test for the silent
// CRC-mismatch pass-through: when the emulated DBDecode output differs
// from what the archive header records, reassembly must fail with
// ErrRestore instead of returning the wrong bytes.
func TestEmulatedOutputVerification(t *testing.T) {
	src := testPayload(5000)
	blob := dbcoder.Compress(src)

	if err := verifyDBDecodeOutput(blob, src); err != nil {
		t.Fatalf("true output rejected: %v", err)
	}

	wrong := append([]byte(nil), src...)
	wrong[100] ^= 0x01 // same length, different bytes — the swallowed case
	err := verifyDBDecodeOutput(blob, wrong)
	if !errors.Is(err, ErrRestore) {
		t.Fatalf("corrupt emulated output: got %v, want ErrRestore", err)
	}
	if err := verifyDBDecodeOutput(blob, src[:len(src)-3]); !errors.Is(err, ErrRestore) {
		t.Fatalf("truncated emulated output: got %v, want ErrRestore", err)
	}
}

func TestRestoreRejectsBadBootstrap(t *testing.T) {
	data := testPayload(1000)
	arch, err := CreateArchive(data, DefaultOptions(media.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(arch.Medium, "garbage", RestoreNative); err == nil {
		t.Fatal("bad bootstrap accepted")
	}
}

func TestModeString(t *testing.T) {
	if RestoreNative.String() != "native" || RestoreNested.String() != "nested" ||
		RestoreDynaRisc.String() != "dynarisc" || Mode(9).String() == "" {
		t.Fatal("mode names")
	}
}

func TestSplitChunks(t *testing.T) {
	c := splitChunks(make([]byte, 10), 4)
	if len(c) != 3 || len(c[0]) != 4 || len(c[2]) != 2 {
		t.Fatalf("chunks %v", c)
	}
	if len(splitChunks(nil, 4)) != 1 {
		t.Fatal("empty stream should yield one empty chunk")
	}
}
