package core

// The error-taxonomy contract: every failing pipeline path must satisfy
// errors.Is for BOTH the domain sentinel (ErrRestore on the restore side)
// AND the underlying cause — a caller holding a cancelled context, an
// injected I/O fault or its own sink error must be able to match the
// error it planted. The table below walks every public entry point; the
// cancellation suite drills the selective-restore and salvage paths PR 8
// left uncovered, at workers 1, 2 and 8, with a goroutine-leak check.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"microlonys/internal/faultinject"
	"microlonys/media"
)

// TestErrorTaxonomyTable: each path reports ErrRestore (restore side) and
// preserves the planted cause through the wrap chain.
func TestErrorTaxonomyTable(t *testing.T) {
	arch, _ := catalogArchive(t, false)
	idx, _ := indexedArchive(t, true)
	idxRaw, _ := indexedArchive(t, false)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name    string
		run     func() error
		wants   []error // every listed sentinel must match via errors.Is
		restore bool    // must additionally match ErrRestore
	}{
		{
			name: "restore/cancelled-context",
			run: func() error {
				_, _, err := RestoreVolume(arch.Volume, arch.BootstrapText,
					RestoreOptions{Mode: RestoreNative, Context: cancelled})
				return err
			},
			wants: []error{context.Canceled}, restore: true,
		},
		{
			name: "restore-to/failing-sink",
			run: func() error {
				_, err := RestoreToWriter(faultinject.Writer(io.Discard, 64), arch.Volume,
					arch.BootstrapText, RestoreOptions{Mode: RestoreNative})
				return err
			},
			wants: []error{faultinject.ErrInjected}, restore: true,
		},
		{
			name: "restore/bad-bootstrap",
			run: func() error {
				_, _, err := RestoreVolume(arch.Volume, "not a bootstrap document",
					RestoreOptions{Mode: RestoreNative})
				return err
			},
			restore: true,
		},
		{
			name: "range/cancelled-context",
			run: func() error {
				_, _, err := RestoreRange(idx.Volume, idx.BootstrapText, 0, 128,
					RestoreOptions{Mode: RestoreNative, Context: cancelled})
				return err
			},
			wants: []error{context.Canceled}, restore: true,
		},
		{
			name: "range/cancelled-context-unindexed-fallback",
			run: func() error {
				// No index on this volume: the query falls back to a full
				// restore, which must still surface the caller's context.
				_, _, err := RestoreRange(arch.Volume, arch.BootstrapText, 0, 128,
					RestoreOptions{Mode: RestoreNative, Context: cancelled})
				return err
			},
			wants: []error{context.Canceled}, restore: true,
		},
		{
			// off+length overflows int: the bounds check must not wrap.
			name: "range/overflow-indexed-compressed",
			run: func() error {
				_, _, err := RestoreRange(idx.Volume, idx.BootstrapText, math.MaxInt-10, 100,
					RestoreOptions{Mode: RestoreNative})
				return err
			},
			restore: true,
		},
		{
			name: "range/overflow-indexed-raw",
			run: func() error {
				_, _, err := RestoreRange(idxRaw.Volume, idxRaw.BootstrapText, math.MaxInt-10, 100,
					RestoreOptions{Mode: RestoreNative})
				return err
			},
			restore: true,
		},
		{
			name: "range/overflow-index-free",
			run: func() error {
				_, _, err := RestoreRange(arch.Volume, arch.BootstrapText, math.MaxInt-10, 100,
					RestoreOptions{Mode: RestoreNative})
				return err
			},
			restore: true,
		},
		{
			name: "table/cancelled-context",
			run: func() error {
				_, _, err := RestoreTable(idx.Volume, idx.BootstrapText, "nation",
					RestoreOptions{Mode: RestoreNative, Context: cancelled})
				return err
			},
			wants: []error{context.Canceled}, restore: true,
		},
		{
			name: "listindex/cancelled-context",
			run: func() error {
				_, _, err := ListIndex(idx.Volume, idx.BootstrapText,
					RestoreOptions{Mode: RestoreNative, Context: cancelled})
				return err
			},
			wants: []error{context.Canceled}, restore: true,
		},
		{
			name: "salvage/cancelled-context",
			run: func() error {
				bag := volumeBag(t, arch.Volume)
				_, err := SalvageTo(io.Discard, bag, SalvageOptions{Mode: RestoreNative, Context: cancelled})
				return err
			},
			wants: []error{context.Canceled}, restore: true,
		},
		{
			name: "salvage/failing-sink",
			run: func() error {
				bag := volumeBag(t, arch.Volume)
				_, err := SalvageTo(faultinject.Writer(io.Discard, 64), bag,
					SalvageOptions{Mode: RestoreNative})
				return err
			},
			wants: []error{faultinject.ErrInjected}, restore: true,
		},
		{
			name: "archive/failing-reader",
			run: func() error {
				opts := DefaultOptions(tinyProfile())
				opts.Compress = false
				_, err := CreateArchiveStream(faultinject.Reader(bytes.NewReader(testPayload(4096)), 100), opts)
				return err
			},
			wants: []error{faultinject.ErrInjected},
		},
		{
			name: "archive/failing-reader-compressed",
			run: func() error {
				opts := DefaultOptions(tinyProfile())
				_, err := CreateArchiveStream(faultinject.Reader(bytes.NewReader(testPayload(4096)), 100), opts)
				return err
			},
			wants: []error{faultinject.ErrInjected},
		},
		{
			name: "archive/cancelled-context",
			run: func() error {
				opts := DefaultOptions(tinyProfile())
				opts.Context = cancelled
				_, err := CreateArchive(testPayload(4096), opts)
				return err
			},
			wants: []error{context.Canceled},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("want an error, got nil")
			}
			if tc.restore && !errors.Is(err, ErrRestore) {
				t.Fatalf("%v does not match ErrRestore", err)
			}
			for _, want := range tc.wants {
				if !errors.Is(err, want) {
					t.Fatalf("%v does not preserve cause %v", err, want)
				}
			}
		})
	}
}

// volumeBag pulls a volume's sheets into a salvage bag without mutation.
func volumeBag(t *testing.T, v *media.Volume) []*media.Medium {
	t.Helper()
	var bag []*media.Medium
	for s := 0; s < v.Sheets(); s++ {
		m, err := v.Sheet(s)
		if err != nil {
			t.Fatal(err)
		}
		bag = append(bag, m)
	}
	return bag
}

// TestSelectiveAndSalvageCancelWorkers closes PR 9's cancellation
// coverage gap: RestoreRange, RestoreTable, ListIndex and SalvageTo must
// honor a cancelled context at workers 1, 2 and 8 — pre-cancelled
// deterministically, mid-operation promptly — and leak no goroutines.
func TestSelectiveAndSalvageCancelWorkers(t *testing.T) {
	idx, _ := indexedArchive(t, true)
	before := runtime.NumGoroutine()

	type entry struct {
		name string
		run  func(ctx context.Context, workers int) error
	}
	entries := []entry{
		{"range", func(ctx context.Context, w int) error {
			_, _, err := RestoreRange(idx.Volume, idx.BootstrapText, 0, 256,
				RestoreOptions{Mode: RestoreNative, Workers: w, Context: ctx})
			return err
		}},
		{"table", func(ctx context.Context, w int) error {
			_, _, err := RestoreTable(idx.Volume, idx.BootstrapText, "nation",
				RestoreOptions{Mode: RestoreNative, Workers: w, Context: ctx})
			return err
		}},
		{"listindex", func(ctx context.Context, w int) error {
			_, _, err := ListIndex(idx.Volume, idx.BootstrapText,
				RestoreOptions{Mode: RestoreNative, Workers: w, Context: ctx})
			return err
		}},
		{"salvage", func(ctx context.Context, w int) error {
			_, err := SalvageTo(io.Discard, volumeBag(t, idx.Volume),
				SalvageOptions{Mode: RestoreNative, Workers: w, Context: ctx})
			return err
		}},
	}

	for _, e := range entries {
		for _, workers := range []int{1, 2, 8} {
			// Pre-cancelled: the pipeline must notice before any real work
			// and report both ErrRestore and the context's error.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := e.run(ctx, workers); !errors.Is(err, ErrRestore) || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s workers=%d pre-cancelled: got %v, want ErrRestore wrapping context.Canceled",
					e.name, workers, err)
			}

			// Mid-operation: cancel from another goroutine; the call must
			// return promptly — clean if it won the race, cancelled if not.
			ctx, cancel = context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func(e entry, w int) { done <- e.run(ctx, w) }(e, workers)
			time.Sleep(2 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("%s workers=%d mid-operation: %v", e.name, workers, err)
				}
			case <-time.After(60 * time.Second):
				t.Fatalf("%s workers=%d did not return after cancellation", e.name, workers)
			}
		}
	}

	// All pipelines drained: nothing may linger.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
