package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"microlonys/internal/emblem"
	"microlonys/internal/slots"
	"microlonys/media"
)

// ---- splitChunks edge cases -------------------------------------------

func TestSplitChunksEmptyStream(t *testing.T) {
	c := splitChunks(nil, 64)
	if len(c) != 1 || len(c[0]) != 0 {
		t.Fatalf("empty stream: got %d chunks, first len %d; want one empty chunk", len(c), len(c[0]))
	}
	c = splitChunks([]byte{}, 64)
	if len(c) != 1 || len(c[0]) != 0 {
		t.Fatalf("zero-length stream: got %d chunks, want one empty chunk", len(c))
	}
}

func TestSplitChunksCapacityOne(t *testing.T) {
	data := []byte("abc")
	c := splitChunks(data, 1)
	if len(c) != 3 {
		t.Fatalf("capacity 1: got %d chunks, want 3", len(c))
	}
	for i, ch := range c {
		if len(ch) != 1 || ch[0] != data[i] {
			t.Fatalf("chunk %d = %q, want %q", i, ch, data[i:i+1])
		}
	}
}

func TestSplitChunksStreamSmallerThanCapacity(t *testing.T) {
	data := []byte("tiny")
	c := splitChunks(data, 1000)
	if len(c) != 1 || !bytes.Equal(c[0], data) {
		t.Fatalf("small stream: got %v", c)
	}
}

func TestSplitChunksReassembles(t *testing.T) {
	data := []byte("0123456789abcdef-")
	for _, capacity := range []int{1, 2, 3, 16, 17, 100} {
		var joined []byte
		for _, ch := range splitChunks(data, capacity) {
			joined = append(joined, ch...)
		}
		if !bytes.Equal(joined, data) {
			t.Fatalf("capacity %d: chunks do not reassemble", capacity)
		}
	}
}

// ---- worker pool ------------------------------------------------------

func TestForEachFrameVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 100
		counts := make([]int32, n)
		err := slots.ForEach(context.Background(), workers, n, func(_ context.Context, _, i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachFrameReportsLowestIndexError(t *testing.T) {
	// Frames 3 and 7 fail; whichever is hit first cancels the pool, but
	// if both record an error the lower index must win. Run at several
	// worker counts to shake out scheduling orders.
	for _, workers := range []int{1, 2, 8} {
		err := slots.ForEach(context.Background(), workers, 10, func(_ context.Context, _, i int) error {
			if i == 3 || i == 7 {
				return fmt.Errorf("frame %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		// With one worker, frame 3 always fails first. With more, either
		// index may have been recorded, but never anything else.
		if err.Error() != "frame 3 failed" && err.Error() != "frame 7 failed" {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if workers == 1 && err.Error() != "frame 3 failed" {
			t.Fatalf("serial path must fail on the first bad frame, got %v", err)
		}
	}
}

func TestForEachFrameCancelsRemainingWork(t *testing.T) {
	// Frame 0 fails immediately; every other frame blocks until it sees
	// the cancellation. If the pool did not cancel, the blocked frames
	// would run out the 2 s timeout and the started count would reach n.
	const n = 1000
	var started int32
	boom := errors.New("boom")
	err := slots.ForEach(context.Background(), 4, n, func(ctx context.Context, _, i int) error {
		atomic.AddInt32(&started, 1)
		if i == 0 {
			return boom
		}
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Second):
			t.Error("frame never saw cancellation")
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if s := atomic.LoadInt32(&started); s >= n {
		t.Fatalf("cancellation started all %d frames", s)
	}
}

func TestForEachFrameHonorsParentContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := slots.ForEach(ctx, 4, 50, func(_ context.Context, _, i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestResolveWorkers(t *testing.T) {
	if slots.Workers(0, 0) < 1 || slots.Workers(-3, 0) < 1 {
		t.Fatal("default workers must be at least 1")
	}
	if slots.Workers(7, 0) != 7 {
		t.Fatal("explicit worker count must be respected")
	}
}

// TestResolveWorkersCapsAtLiveCount is the regression test for the idle-
// goroutine fix: a pool never exceeds the number of live work items, so a
// two-frame restore on a 64-way request (or a GOMAXPROCS default) spins
// up exactly two workers — and allocates scratch for exactly two.
func TestResolveWorkersCapsAtLiveCount(t *testing.T) {
	if got := slots.Workers(64, 2); got != 2 {
		t.Fatalf("slots.Workers(64, 2) = %d, want 2", got)
	}
	if got := slots.Workers(0, 3); got > 3 {
		t.Fatalf("slots.Workers(0, 3) = %d, want <= 3", got)
	}
	if got := slots.Workers(2, 100); got != 2 {
		t.Fatalf("slots.Workers(2, 100) = %d, want 2", got)
	}
	if got := slots.Workers(5, 0); got != 5 {
		t.Fatalf("slots.Workers(5, 0) = %d, want 5 (unknown live count leaves the pool uncapped)", got)
	}
}

// TestFrontierOrdering pins the ordered-frontier helper: out-of-order
// completions drain in strict index order, each exactly once.
func TestFrontierOrdering(t *testing.T) {
	f := newFrontier(5)
	var got []int
	collect := func(i int) { got = append(got, i) }
	f.complete(2)
	f.drain(collect)
	if len(got) != 0 {
		t.Fatalf("drained %v before index 0 completed", got)
	}
	f.complete(0)
	f.drain(collect)
	f.complete(1)
	f.complete(4)
	f.drain(collect)
	if f.done() {
		t.Fatal("done with index 3 outstanding")
	}
	f.complete(3)
	f.drain(collect)
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
	if !f.done() {
		t.Fatal("frontier not done after all indices drained")
	}
}

// ---- parallel vs serial determinism -----------------------------------

// mediumFingerprint is volumeFingerprint of the archive's single sheet:
// its stored pixels, so any divergence in written pixels shows up here.
func mediumFingerprint(t *testing.T, a *Archived) []byte {
	t.Helper()
	return volumeFingerprint(t, media.VolumeOf(a.Medium))
}

func TestArchiveParallelMatchesSerial(t *testing.T) {
	data := testPayload(40000)
	base := DefaultOptions(media.Tiny())

	serialOpts := base
	serialOpts.Workers = 1
	serial, err := CreateArchive(data, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	ref := mediumFingerprint(t, serial)

	for _, workers := range []int{0, 2, 5} {
		opts := base
		opts.Workers = workers
		par, err := CreateArchive(data, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Manifest != serial.Manifest {
			t.Fatalf("workers=%d: manifest %+v != serial %+v", workers, par.Manifest, serial.Manifest)
		}
		if par.BootstrapText != serial.BootstrapText {
			t.Fatalf("workers=%d: bootstrap text differs", workers)
		}
		if !bytes.Equal(mediumFingerprint(t, par), ref) {
			t.Fatalf("workers=%d: written medium differs from serial", workers)
		}
	}
}

func TestRestoreParallelMatchesSerial(t *testing.T) {
	data := testPayload(50000)
	arch, err := CreateArchive(data, DefaultOptions(media.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	// Destroy two frames so the parallel reassembly also exercises
	// outer-code recovery.
	if err := arch.Medium.Destroy(1); err != nil {
		t.Fatal(err)
	}
	if err := arch.Medium.Destroy(arch.Medium.FrameCount() - 1); err != nil {
		t.Fatal(err)
	}

	serialOut, serialSt, err := RestoreWithOptions(arch.Medium, arch.BootstrapText,
		RestoreOptions{Mode: RestoreNative, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialOut, data) {
		t.Fatal("serial restore differs from input")
	}

	for _, workers := range []int{0, 2, 5} {
		out, st, err := RestoreWithOptions(arch.Medium, arch.BootstrapText,
			RestoreOptions{Mode: RestoreNative, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(out, serialOut) {
			t.Fatalf("workers=%d: restored bytes differ from serial", workers)
		}
		if !reflect.DeepEqual(st, serialSt) {
			t.Fatalf("workers=%d: stats %+v != serial %+v", workers, st, serialSt)
		}
	}
}

func TestRestoreParallelMatchesSerialEmulated(t *testing.T) {
	// The emulated decode path reuses one DynaRisc CPU per worker: with
	// Workers=1 a single machine decodes every frame back to back, with
	// Workers=4 each pool goroutine owns its own. Byte identity across
	// the counts pins both the pipeline determinism and the Reset-based
	// reuse.
	data := testPayload(4000)
	arch, err := CreateArchive(data, DefaultOptions(media.Tiny()))
	if err != nil {
		t.Fatal(err)
	}
	serialOut, _, err := RestoreWithOptions(arch.Medium, arch.BootstrapText,
		RestoreOptions{Mode: RestoreDynaRisc, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialOut, data) {
		t.Fatal("serial emulated restore differs from input")
	}
	out, _, err := RestoreWithOptions(arch.Medium, arch.BootstrapText,
		RestoreOptions{Mode: RestoreDynaRisc, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, serialOut) {
		t.Fatal("parallel emulated restore differs from serial")
	}
}

func TestRestoreParallelMatchesSerialNested(t *testing.T) {
	if testing.Short() {
		t.Skip("nested emulation is slow; skipped in -short mode")
	}
	// Same identity for the VeRisc-hosted path, whose per-worker Runner
	// reuses the largest machine image of all. Raw mode keeps this to
	// one group of four small frames, as in TestArchiveRestoreNested.
	l := emblem.Layout{DataW: 80, DataH: 64, PxPerModule: 2}
	p := media.Profile{
		Name:   "tiny-nested-par",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
	}
	data := []byte(strings.Repeat("SELECT 1; ", 20))
	opts := DefaultOptions(p)
	opts.Compress = false
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	serialOut, _, err := RestoreWithOptions(arch.Medium, arch.BootstrapText,
		RestoreOptions{Mode: RestoreNested, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialOut, data) {
		t.Fatal("serial nested restore differs from input")
	}
	out, _, err := RestoreWithOptions(arch.Medium, arch.BootstrapText,
		RestoreOptions{Mode: RestoreNested, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, serialOut) {
		t.Fatal("parallel nested restore differs from serial")
	}
}
