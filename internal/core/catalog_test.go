package core

// Catalog-volume tests on the ordinary Restore path (the salvage path
// has its own suite in salvage_test.go): archives written with
// Options.Catalog restore bit-exact with every group verified against
// the catalog checksums, catalog loss is never a data loss, and
// catalog-free archives remain byte-identical to previous releases.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"microlonys/internal/mocoder"
)

// TestRestoreCatalogVolume: a catalog archive restores bit-exact through
// the ordinary bootstrap-text path, with the assembler consuming the
// catalog frames out-of-band and verifying every group's checksum.
func TestRestoreCatalogVolume(t *testing.T) {
	arch, data := catalogArchive(t, false)
	got, st, err := RestoreVolume(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("catalog-volume restore differs from input")
	}
	if st.CatalogFrames != 3 || st.GroupsVerified != arch.Manifest.Groups || st.GroupsMismatched != 0 {
		t.Fatalf("catalog stats %+v", st)
	}
	for _, g := range st.Groups {
		if !g.Verified || g.Mismatched {
			t.Fatalf("group report %+v", g)
		}
	}

	// A destroyed catalog frame costs context, never data: strict restore
	// still succeeds and still verifies from the surviving catalogs.
	if err := arch.Volume.Destroy(1, 0); err != nil {
		t.Fatal(err)
	}
	got, st, err = RestoreVolume(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatalf("strict restore after catalog loss: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restore after catalog loss differs from input")
	}
	if st.CatalogFrames != 2 || st.GroupsVerified != arch.Manifest.Groups {
		t.Fatalf("stats after catalog loss %+v", st)
	}
}

// TestCatalogOffIsByteIdentical pins the opt-in: with Options.Catalog
// left false, the written volume is byte-identical to the seed pipeline
// — no reserved slots, no manifest catalog fields.
func TestCatalogOffIsByteIdentical(t *testing.T) {
	prof := tinyProfile()
	data := testPayload(20000)
	opts := DefaultOptions(prof)

	a, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Manifest.CatalogFrames != 0 || a.Manifest.ArchiveID != 0 {
		t.Fatalf("catalog-free manifest carries catalog fields: %+v", a.Manifest)
	}
	if !bytes.Equal(mediumFingerprint(t, a), mediumFingerprint(t, b)) {
		t.Fatal("catalog-free archives not deterministic")
	}
	if !bytes.Contains([]byte(a.BootstrapText), []byte("groupdata")) ||
		bytes.Contains([]byte(a.BootstrapText), []byte("catalog=1")) {
		t.Fatal("catalog key rendered on a catalog-free bootstrap")
	}

	c, err := CreateArchive(data, Options{Profile: prof, GroupData: opts.GroupData,
		Compress: true, Catalog: true, SheetFrames: 21})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(c.BootstrapText), []byte("catalog=1")) {
		t.Fatal("catalog bootstrap misses the catalog key")
	}
}

// TestRestoreContextCancel is the satellite regression test: a context
// cancelled mid-restore aborts promptly, surfaces both ErrRestore and
// context.Canceled, and leaks no goroutines or deadlocks.
func TestRestoreContextCancel(t *testing.T) {
	arch, _ := catalogArchive(t, false)
	before := runtime.NumGoroutine()

	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already cancelled: the pipeline must notice immediately
		_, _, err := RestoreVolume(arch.Volume, arch.BootstrapText,
			RestoreOptions{Mode: RestoreNative, Workers: workers, Context: ctx})
		if !errors.Is(err, ErrRestore) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want ErrRestore wrapping context.Canceled", workers, err)
		}
	}

	// Cancel mid-flight from another goroutine; the restore must return
	// promptly rather than hang on a worker or consumer.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := RestoreVolume(arch.Volume, arch.BootstrapText,
			RestoreOptions{Mode: RestoreNative, Workers: 2, Context: ctx})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		// A fast restore may legitimately win the race and finish clean.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-flight cancel: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("restore did not return after cancellation")
	}

	// Give drained goroutines a moment, then check nothing leaked.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// errAfterWriter fails with errWriter after n bytes have been accepted.
type errAfterWriter struct {
	n int
}

var errWriter = errors.New("writer: simulated downstream failure")

func (w *errAfterWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errWriter
	}
	w.n -= len(p)
	return len(p), nil
}

// TestRestoreToErroringWriter is the satellite regression test: a sink
// that starts failing mid-stream surfaces through ErrRestore (wrapping
// nothing silently), drains the pipeline without deadlock, and behaves
// identically at workers 1, 2 and 8.
func TestRestoreToErroringWriter(t *testing.T) {
	prof := tinyProfile()
	capacity := mocoder.Capacity(prof.Layout)
	data := testPayload(40 * capacity)
	opts := DefaultOptions(prof)
	opts.Compress = false // raw archives stream to the writer group by group
	opts.SheetFrames = 20
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}

	var refErr error
	for i, workers := range []int{1, 2, 8} {
		w := &errAfterWriter{n: 18 * capacity} // fails inside group 2
		_, err := RestoreToWriter(w, arch.Volume, arch.BootstrapText,
			RestoreOptions{Mode: RestoreNative, Workers: workers})
		if !errors.Is(err, ErrRestore) {
			t.Fatalf("workers=%d: got %v, want ErrRestore", workers, err)
		}
		if i == 0 {
			refErr = err
		} else if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("workers=%d: error %q diverged from serial %q", workers, err, refErr)
		}
	}
}

// TestEngineSalvageMatchesOneShot: back-to-back salvages reusing pooled
// scan scratch produce the same bytes and report as the first.
func TestEngineSalvageMatchesOneShot(t *testing.T) {
	arch, data := catalogArchive(t, false)
	if err := arch.Volume.Destroy(0, 3); err != nil {
		t.Fatal(err)
	}
	bag := bagOf(t, arch.Volume, 2, 0, 1)

	want, wantRep, err := Salvage(bag, SalvageOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, data) {
		t.Fatal("salvage differs from input")
	}
	for trial := 0; trial < 3; trial++ {
		var buf bytes.Buffer
		rep, err := SalvageTo(&buf, bag, SalvageOptions{Workers: 2})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("trial %d: salvage differs from the first", trial)
		}
		if !reflect.DeepEqual(rep, wantRep) {
			t.Fatalf("trial %d: report diverged:\n%+v\n%+v", trial, rep, wantRep)
		}
	}
}
