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

	"microlonys/internal/mocoder"
	"microlonys/internal/slots"
	"microlonys/media"
	"microlonys/raster"
)

// Calls that share the process-wide frame slots: every test here runs
// its calls at Workers 0, so each call's pool is GOMAXPROCS and the calls
// contend for the same slots. The volumes scan distortion-free: the
// scanner model is not under test, and CI repeats these tests under the
// race detector.

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// rawArchive archives n bytes of test payload uncompressed on the tiny
// profile, so a restore streams each group to its sink as it completes.
func rawArchive(t *testing.T, n int) (*Archived, []byte) {
	t.Helper()
	data := testPayload(n)
	opts := DefaultOptions(media.Tiny())
	opts.Compress = false
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	arch.Volume.SetScanner(media.Distortions{})
	return arch, data
}

// waitGoroutines fails the test unless the goroutine count returns to
// within two of before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestSlotsCancelOneOfTwoRestores: two restores of different volumes run
// at once and one is cancelled mid-run. The other's bytes and stats must
// equal a solo restore, and no goroutine of either may outlive them.
func TestSlotsCancelOneOfTwoRestores(t *testing.T) {
	keep, keepData := rawArchive(t, 20000)
	for _, i := range []int{2, 7} { // recoverable damage, so the stats count something
		s, j, err := keep.Volume.Locate(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := keep.Volume.Destroy(s, j); err != nil {
			t.Fatal(err)
		}
	}
	other, _ := rawArchive(t, 30000)
	ro := RestoreOptions{Mode: RestoreNative, Partial: true}
	var solo bytes.Buffer
	soloSt, err := RestoreToWriter(&solo, keep.Volume, keep.BootstrapText, ro)
	if err != nil || !bytes.Equal(solo.Bytes(), keepData) {
		t.Fatalf("solo restore: %v", err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	otherDone := make(chan error, 1)
	go func() {
		_, err := RestoreToWriter(writerFunc(func(p []byte) (int, error) { return len(p), nil }),
			other.Volume, other.BootstrapText, RestoreOptions{Mode: RestoreNative, Context: ctx})
		otherDone <- err
	}()
	// The kept restore's first write cancels the other one: both are
	// running by then, and the other has most of its frames still to go.
	var got bytes.Buffer
	st, err := RestoreToWriter(writerFunc(func(p []byte) (int, error) {
		cancel()
		return got.Write(p)
	}), keep.Volume, keep.BootstrapText, ro)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-otherDone; !errors.Is(err, context.Canceled) || !errors.Is(err, ErrRestore) {
		t.Fatalf("cancelled restore: got %v, want ErrRestore wrapping context.Canceled", err)
	}
	if !bytes.Equal(got.Bytes(), solo.Bytes()) {
		t.Fatal("restore beside a cancelled one: bytes differ from the solo restore")
	}
	if !reflect.DeepEqual(st, soloSt) {
		t.Fatalf("restore beside a cancelled one: stats %+v, solo %+v", st, soloSt)
	}
	waitGoroutines(t, before)
}

// TestSlotsStalledSinkHoldsNone: a restore's sink runs on its caller's
// goroutine between windows, when none of its workers runs, so a sink
// that blocks holds no frame slot and a range query on another volume
// still completes while it is blocked. Once released, the stalled
// restore finishes intact.
func TestSlotsStalledSinkHoldsNone(t *testing.T) {
	idx, idxData := indexedArchive(t, true)
	idx.Volume.SetScanner(media.Distortions{})
	stalled, stalledData := rawArchive(t, 30000)
	// The sink blocks on its first write. The volume is one window at any
	// worker count, so every frame is decoded by then; the guard below
	// only keeps the volume several groups long. A sink that stalls
	// between windows is TestExecutorWindows' cancellation case.
	if park := 3*runtime.GOMAXPROCS(0) + 2*(mocoder.GroupData+mocoder.GroupParity); stalled.Volume.FrameCount() <= park {
		t.Fatalf("stalled volume has %d frames, want more than %d", stalled.Volume.FrameCount(), park)
	}

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
	stalledDone := make(chan error, 1)
	go func() {
		_, err := RestoreToWriter(sink, stalled.Volume, stalled.BootstrapText, RestoreOptions{Mode: RestoreNative})
		stalledDone <- err
	}()
	select {
	case <-entered:
	case <-time.After(60 * time.Second):
		t.Fatal("the stalled restore never reached its sink")
	}

	off, length := len(idxData)/3, 4096
	rangeDone := make(chan error, 1)
	go func() {
		out, _, err := RestoreRange(idx.Volume, idx.BootstrapText, off, length, RestoreOptions{Mode: RestoreNative})
		if err == nil && !bytes.Equal(out, idxData[off:off+length]) {
			err = errors.New("range bytes differ from the input")
		}
		rangeDone <- err
	}()
	select {
	case err := <-rangeDone:
		if err != nil {
			t.Fatalf("range beside a stalled sink: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("range query did not complete while another call's sink was blocked")
	}

	releaseOnce.Do(func() { close(release) })
	if err := <-stalledDone; err != nil {
		t.Fatalf("stalled restore: %v", err)
	}
	if !bytes.Equal(got.Bytes(), stalledData) {
		t.Fatal("stalled restore: bytes differ from the input")
	}
}

// slotTaskFuncs are functions that run only inside a frame-slot task: a
// frame scan (restore or reprint), a frame decode, a frame encode and a
// restart block's compression.
var slotTaskFuncs = []string{
	"microlonys/media.(*Medium).ScanFrameInto(",
	"microlonys/internal/mocoder.DecodeWith(",
	"microlonys/internal/mocoder.(*Encoder).Encode(",
	"microlonys/internal/dbcoder.CompressDepth(",
}

// tasksNow counts the goroutines inside slotTaskFuncs in one snapshot of
// every goroutine's stack. A goroutine is there only while it holds a
// slot, unless some caller computes without one.
func tasksNow(buf []byte) int {
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		for _, fn := range slotTaskFuncs {
			if strings.Contains(g, fn) {
				n++
				break
			}
		}
	}
	return n
}

// peakTasks samples tasksNow until stop is closed and returns the most
// tasks it saw at once.
func peakTasks(stop <-chan struct{}) int {
	buf := make([]byte, 1<<20)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	peak := 0
	for {
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
		peak = max(peak, tasksNow(buf))
	}
}

// TestSlotsReprintBesideRestores: Reprint's frame tasks take the shared
// frame slots. While the test holds every slot (GOMAXPROCS, sized at
// start-up), a Reprint scans nothing and does not finish; released, it
// completes. A second Reprint then runs beside two restores, all at
// GOMAXPROCS workers, each restore repeating until the reprint is done so
// the three overlap throughout: the frame tasks computing at once never
// outnumber the slots, the reprint equals the first frame for frame, the
// restores return their inputs, and no goroutine outlives the calls.
func TestSlotsReprintBesideRestores(t *testing.T) {
	arch, data := rawArchive(t, 20000)
	src, _ := rawArchive(t, 4000)
	src.Volume.SetScanner(media.Tiny().Scanner) // the reprint runs the scanner model
	limit := runtime.GOMAXPROCS(0)
	before := runtime.NumGoroutine()

	held, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	for i := 0; i < limit; i++ {
		go slots.Run(context.Background(), func() {
			held <- struct{}{}
			<-release
		})
	}
	for i := 0; i < limit; i++ {
		select {
		case <-held:
		case <-time.After(60 * time.Second):
			t.Fatalf("held %d of %d frame slots", i, limit)
		}
	}
	var first *media.Volume
	var firstErr error
	firstDone := make(chan struct{})
	go func() { defer close(firstDone); first, firstErr = src.Volume.Reprint() }()
	time.Sleep(100 * time.Millisecond)
	if n := tasksNow(make([]byte, 1<<20)); n > 0 {
		t.Fatalf("%d frame tasks computed while the test held every slot", n)
	}
	select {
	case <-firstDone:
		t.Fatal("Reprint finished while the test held every slot")
	default:
	}
	releaseOnce.Do(func() { close(release) })
	<-firstDone
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	stop, peak := make(chan struct{}), make(chan int, 1)
	go func() { peak <- peakTasks(stop) }()
	reprinted := make(chan struct{})
	restore := func(arch *Archived, want []byte) error {
		for { // until the reprint is done
			got, _, err := RestoreVolume(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreNative})
			if err == nil && !bytes.Equal(got, want) {
				err = errors.New("bytes differ from the input")
			}
			select {
			case <-reprinted:
				return err
			default:
				if err != nil {
					return err
				}
			}
		}
	}
	var wg sync.WaitGroup
	var errA, errB, errR error
	var reprint *media.Volume
	wg.Add(3)
	go func() { defer wg.Done(); errA = restore(arch, data) }()
	go func() { defer wg.Done(); errB = restore(arch, data) }()
	go func() { defer wg.Done(); defer close(reprinted); reprint, errR = src.Volume.Reprint() }()
	wg.Wait()
	close(stop)
	if errA != nil || errB != nil || errR != nil {
		t.Fatalf("restore: %v; restore: %v; reprint: %v", errA, errB, errR)
	}
	p := <-peak
	t.Logf("at most %d frame tasks computed at once, limit %d", p, limit)
	if p > limit {
		t.Fatalf("%d frame tasks computed at once, limit %d", p, limit)
	}
	waitGoroutines(t, before)

	if err := sameFrames(reprint, first); err != nil {
		t.Fatalf("reprint beside two restores: %v", err)
	}
}

// sameFrames reports the first frame whose stored pixels differ between
// volumes a and b, read through a distortion-free scanner at frame size.
func sameFrames(a, b *media.Volume) error {
	a, b = a.Clone(), b.Clone()
	a.SetScanner(media.Distortions{})
	b.SetScanner(media.Distortions{})
	if a.Sheets() != b.Sheets() || a.FrameCount() != b.FrameCount() {
		return fmt.Errorf("%d sheets/%d frames, want %d/%d", a.Sheets(), a.FrameCount(), b.Sheets(), b.FrameCount())
	}
	for i := 0; i < a.FrameCount(); i++ {
		fa, err := a.ScanFrame(i)
		if err != nil {
			return err
		}
		fb, err := b.ScanFrame(i)
		if err != nil {
			return err
		}
		if !raster.Equal(fa, fb) {
			return fmt.Errorf("frame %d differs", i)
		}
	}
	return nil
}
