package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/media"
	"microlonys/raster"
)

// Pooled scan scratch must be invisible: back-to-back restores — clean,
// damaged, clean again — each borrow the scratch the previous call
// returned, and still reproduce the first restore of the same volume
// byte for byte and stat for stat.
func TestEngineMatchesOneShotAcrossTrials(t *testing.T) {
	data := testPayload(40000)
	opts := DefaultOptions(media.Tiny())
	opts.Compress = false
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	vol := arch.Volume

	damaged := vol.Clone()
	for _, i := range []int{1, 5, 9} {
		s, j, err := damaged.Locate(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := damaged.Destroy(s, j); err != nil {
			t.Fatal(err)
		}
	}

	type result struct {
		out []byte
		st  *RestoreStats
		err error
	}
	first := map[*media.Volume]result{}
	ro := RestoreOptions{Mode: RestoreNative, Workers: 1, Partial: true}
	for trial, v := range []*media.Volume{vol, damaged, vol, damaged, vol} {
		gotBytes, gotStats, gotErr := RestoreVolume(v, arch.BootstrapText, ro)
		want, seen := first[v]
		if !seen {
			want = result{gotBytes, gotStats, gotErr}
			first[v] = want
		}
		if (want.err == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, want.err, gotErr)
		}
		if !bytes.Equal(gotBytes, want.out) {
			t.Fatalf("trial %d: bytes diverged from the first restore", trial)
		}
		if !reflect.DeepEqual(gotStats, want.st) {
			t.Fatalf("trial %d: stats diverged: %+v vs %+v", trial, gotStats, want.st)
		}
		if trial%2 == 0 && !bytes.Equal(gotBytes, data) {
			t.Fatalf("trial %d: clean volume did not restore bit-exact", trial)
		}
	}
}

// Window boundaries: the restore executor decodes its plan one window at
// a time (see window) and consumes each window in plan order once its
// frames are decoded. A window of small frames is counted in groups, not
// pixels, so the fixture is a raw volume of small clean frames
// (windowProfile) of at least three windows at workers 1 and 2, on
// sheets of 100 frames, so sheet and window boundaries fall apart, with a
// destroyed frame in several windows. It is built once per test binary:
// CI repeats these tests under the race detector.

// windowProfile is a clean profile of 60×50-pixel frames carrying 18
// bytes each, one pixel per module.
func windowProfile() media.Profile {
	l := emblem.Layout{DataW: 50, DataH: 40, PxPerModule: 1}
	return media.Profile{
		Name:   "window",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
	}
}

var windowFixture struct {
	once sync.Once
	vol  *media.Volume // damaged
	boot string
	ref  []byte        // referenceRestore's bytes
	st   *RestoreStats // and stats
	err  error
}

// windowVolume returns the window fixture, its Bootstrap text and the
// reference formulation's restore of its frames, read as one medium.
func windowVolume(t *testing.T) (*media.Volume, string, []byte, *RestoreStats) {
	t.Helper()
	fx := &windowFixture
	fx.once.Do(func() {
		capacity := mocoder.Capacity(windowProfile().Layout)
		opts := DefaultOptions(windowProfile())
		opts.Compress = false
		opts.SheetFrames = 100
		// 32 full groups and a short one, 648 frames: three windows at
		// workers 2, the last holding only the short group.
		data := testPayload((32*mocoder.GroupData + 5) * capacity)
		arch, err := CreateArchive(data, opts)
		if err != nil {
			fx.err = err
			return
		}
		for _, i := range []int{3, 170, 333, 501, 642} {
			s, j, err := arch.Volume.Locate(i)
			if err == nil {
				err = arch.Volume.Destroy(s, j)
			}
			if err != nil {
				fx.err = err
				return
			}
		}
		fx.vol, fx.boot = arch.Volume, arch.BootstrapText
		one := media.New(fx.vol.Profile())
		for i := 0; i < fx.vol.FrameCount() && fx.err == nil; i++ {
			var f *raster.Gray
			if f, fx.err = fx.vol.ScanFrame(i); fx.err == nil {
				fx.err = one.Write([]*raster.Gray{f})
			}
		}
		if fx.err != nil {
			return
		}
		fx.ref, fx.st, fx.err = referenceRestore(one, fx.boot, RestoreOptions{Mode: RestoreNative, Workers: 1})
		if fx.err == nil && !bytes.Equal(fx.ref, data) {
			fx.err = errors.New("reference restore differs from the input")
		}
	})
	if fx.err != nil {
		t.Fatal(fx.err)
	}
	return fx.vol, fx.boot, fx.ref, fx.st
}

// TestWindowBoundsPayload: a window holds windowGroups groups of frames
// per worker where they carry at most windowBytes of payload, fewer where
// they would carry more, and never less than one frame per worker.
func TestWindowBoundsPayload(t *testing.T) {
	groupsFrames := windowGroups * (mocoder.GroupData + mocoder.GroupParity)
	for _, p := range []media.Profile{windowProfile(), media.Tiny(), media.CinemaFilm(), media.Paper(), media.Microfilm()} {
		capacity := mocoder.Capacity(p.Layout)
		for _, workers := range []int{1, 2, 8} {
			w := window(workers, 1<<20, p.Layout)
			small := groupsFrames*capacity <= windowBytes
			if w < workers || small && w != workers*groupsFrames ||
				!small && (w >= workers*groupsFrames || w > workers && w*capacity > workers*windowBytes) {
				t.Errorf("%s at workers %d: window of %d frames of %d bytes", p.Name, workers, w, capacity)
			}
		}
	}
}

// TestExecutorWindows restores the window fixture at workers 1, 2 and 8.
// The bytes and full stats equal each other and the reference
// formulation's, and every frame counts on its own sheet. A sink error
// in the last window returns ErrRestore and the sink's error after every
// earlier window was written. Where the plan has a second window, a sink
// panic in it panics on the caller, and a sink that cancels at the end of
// the first stops the restore before the second, with ErrRestore and
// context.Canceled. No goroutine outlives any of them. It decodes about
// eight restores' worth of frames, so -short leaves it to the full run.
func TestExecutorWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes about eight restores' worth of frames")
	}
	vol, boot, ref, refSt := windowVolume(t)
	n := vol.FrameCount()
	groupBytes := mocoder.GroupData * mocoder.Capacity(windowProfile().Layout)
	// groupAt is the stream offset of the group that opens at frame k.
	groupAt := func(k int) int { return k / (mocoder.GroupData + mocoder.GroupParity) * groupBytes }
	for _, workers := range []int{1, 2} {
		if w := window(workers, n, windowProfile().Layout); n <= 2*w {
			t.Fatalf("fixture has %d frames, want at least three windows of %d at workers %d", n, w, workers)
		}
	}

	// sink accepts writes until fn, called before each one with the bytes
	// accepted so far, returns an error.
	type sink struct {
		got bytes.Buffer
		fn  func(at int) error
	}
	write := func(s *sink) writerFunc {
		return func(p []byte) (int, error) {
			if err := s.fn(s.got.Len()); err != nil {
				return 0, err
			}
			return s.got.Write(p)
		}
	}

	var first *RestoreStats
	for _, workers := range []int{1, 2, 8} {
		win := window(workers, n, windowProfile().Layout)
		ro := RestoreOptions{Mode: RestoreNative, Workers: workers}
		before := runtime.NumGoroutine()

		var s sink
		s.fn = func(int) error { return nil }
		st, err := RestoreToWriter(write(&s), vol, boot, ro)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !bytes.Equal(s.got.Bytes(), ref) {
			t.Fatalf("workers %d: bytes differ from the reference restore", workers)
		}
		if st.FramesScanned != refSt.FramesScanned || st.FramesFailed != refSt.FramesFailed ||
			st.GroupsRecovered != refSt.GroupsRecovered || st.BytesCorrected != refSt.BytesCorrected {
			t.Fatalf("workers %d: stats %+v != reference %+v", workers, st, refSt)
		}
		for sh := range st.Sheets {
			if m, _ := vol.Sheet(sh); st.Sheets[sh].Frames != m.FrameCount() {
				t.Fatalf("workers %d: sheet %d counted %d frames, want %d", workers, sh, st.Sheets[sh].Frames, m.FrameCount())
			}
		}
		if first == nil {
			first = st
		} else if !reflect.DeepEqual(st, first) {
			t.Fatalf("workers %d: stats %+v, workers 1: %+v", workers, st, first)
		}
		waitGoroutines(t, before)

		// A sink error on the last window's first write.
		last := groupAt((n - 1) / win * win)
		errSink := errors.New("sink failed")
		s = sink{fn: func(at int) error {
			if at >= last {
				return errSink
			}
			return nil
		}}
		_, err = RestoreToWriter(write(&s), vol, boot, ro)
		if !errors.Is(err, ErrRestore) || !errors.Is(err, errSink) {
			t.Fatalf("workers %d: sink error: got %v, want ErrRestore wrapping the sink's error", workers, err)
		}
		if s.got.Len() != last || !bytes.Equal(s.got.Bytes(), ref[:last]) {
			t.Fatalf("workers %d: sink error in the last window: %d bytes written before it, want %d", workers, s.got.Len(), last)
		}
		waitGoroutines(t, before)

		// The window boundary cases need a second window; at workers 8 the
		// fixture is one window.
		if n <= win {
			continue
		}
		// A sink panic on the first write of the second window.
		end := groupAt(win)
		s = sink{fn: func(at int) error {
			if at >= end {
				panic("sink panicked")
			}
			return nil
		}}
		p := func() (p any) {
			defer func() { p = recover() }()
			RestoreToWriter(write(&s), vol, boot, ro)
			return nil
		}()
		if p == nil || !strings.Contains(fmt.Sprint(p), "sink panicked") {
			t.Fatalf("workers %d: sink panic: recovered %v on the caller", workers, p)
		}
		if s.got.Len() != end {
			t.Fatalf("workers %d: sink panic in window 2: %d bytes written before it, want %d", workers, s.got.Len(), end)
		}
		waitGoroutines(t, before)

		// A sink that cancels on the last write of the first window.
		ctx, cancel := context.WithCancel(context.Background())
		s = sink{fn: func(at int) error {
			if at == end-groupBytes {
				cancel()
			}
			return nil
		}}
		ro.Context = ctx
		_, err = RestoreToWriter(write(&s), vol, boot, ro)
		cancel()
		if !errors.Is(err, ErrRestore) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: cancelled: got %v, want ErrRestore wrapping context.Canceled", workers, err)
		}
		if s.got.Len() != end {
			t.Fatalf("workers %d: cancelled at the end of window 1: %d bytes written, want %d", workers, s.got.Len(), end)
		}
		waitGoroutines(t, before)
	}
}

// TestExecutorWindowsStalledSink: a sink that blocks on its first write
// while windows remain stalls its restore whole. consume runs between
// windows on the caller's goroutine, so no frame of the next window is
// decoded while the sink waits: repeated snapshots count no frame task.
// Released, the restore returns the bytes and full stats of an unstalled
// one (which TestExecutorWindows pins equal at every worker count), and
// no goroutine outlives it.
func TestExecutorWindowsStalledSink(t *testing.T) {
	if testing.Short() {
		t.Skip("restores the window fixture three times")
	}
	vol, boot, ref, _ := windowVolume(t)
	want, err := RestoreToWriter(writerFunc(func(p []byte) (int, error) { return len(p), nil }),
		vol, boot, RestoreOptions{Mode: RestoreNative, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	for _, workers := range []int{1, 2} {
		if w := window(workers, vol.FrameCount(), windowProfile().Layout); vol.FrameCount() <= w {
			t.Fatalf("fixture has %d frames, want more than one window of %d at workers %d", vol.FrameCount(), w, workers)
		}
		before := runtime.NumGoroutine()
		entered, release := make(chan struct{}), make(chan struct{})
		var once, releaseOnce sync.Once
		defer releaseOnce.Do(func() { close(release) }) // unblock the sink if the test fails
		var got bytes.Buffer
		sink := writerFunc(func(p []byte) (int, error) {
			once.Do(func() {
				close(entered)
				<-release
			})
			return got.Write(p)
		})
		type result struct {
			st  *RestoreStats
			err error
		}
		done := make(chan result, 1)
		go func() {
			st, err := RestoreToWriter(sink, vol, boot, RestoreOptions{Mode: RestoreNative, Workers: workers})
			done <- result{st, err}
		}()
		select {
		case <-entered:
		case <-time.After(60 * time.Second):
			t.Fatalf("workers %d: the restore never reached its sink", workers)
		}
		for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if n := tasksNow(buf); n > 0 {
				t.Fatalf("workers %d: %d frame tasks computed while the sink was blocked", workers, n)
			}
		}
		releaseOnce.Do(func() { close(release) })
		r := <-done
		if r.err != nil {
			t.Fatalf("workers %d: %v", workers, r.err)
		}
		if !bytes.Equal(got.Bytes(), ref) {
			t.Fatalf("workers %d: bytes differ from the reference restore", workers)
		}
		if !reflect.DeepEqual(r.st, want) {
			t.Fatalf("workers %d: stats %+v, unstalled %+v", workers, r.st, want)
		}
		waitGoroutines(t, before)
	}
}
