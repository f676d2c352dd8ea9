package jobs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"microlonys/internal/core"
	"microlonys/internal/faultinject"
	"microlonys/media"
)

// recorder tallies what a job's factories opened and how the manager
// treated each end: every end must be closed exactly once, and a sink
// synced while its job is still running.
type recorder struct {
	m         *Manager
	syncErr   error
	mu        sync.Mutex
	opened    int
	closes    []int // Close calls per opened end, in open order
	syncState []State
}

func (r *recorder) open() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.opened++
	r.closes = append(r.closes, 0)
	return r.opened - 1
}

func (r *recorder) close(i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closes[i]++
	return nil
}

// checkClosed asserts that n ends were opened and each closed once.
func (r *recorder) checkClosed(t *testing.T, n int) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.opened != n {
		t.Fatalf("factories opened %d ends, want %d", r.opened, n)
	}
	for i, c := range r.closes {
		if c != 1 {
			t.Fatalf("end %d closed %d times, want once", i, c)
		}
	}
}

type recordingReader struct {
	io.Reader
	rec *recorder
	i   int
}

func (r *recordingReader) Close() error { return r.rec.close(r.i) }

type recordingWriter struct {
	io.Writer
	rec *recorder
	i   int
}

func (w *recordingWriter) Close() error { return w.rec.close(w.i) }

// Sync records the state of the newest job — the one writing — at the
// moment it is synced.
func (w *recordingWriter) Sync() error {
	js := w.rec.m.Jobs()
	w.rec.mu.Lock()
	defer w.rec.mu.Unlock()
	w.rec.syncState = append(w.rec.syncState, js[len(js)-1].State)
	return w.rec.syncErr
}

// TestFactoriesClosedEveryAttempt: the manager closes every source and
// sink a factory returns — once per attempt, retried attempts included —
// and syncs the sink of a succeeding job before reporting it succeeded.
func TestFactoriesClosedEveryAttempt(t *testing.T) {
	m := newManager(t, Config{Workers: 1, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond})
	defer drain(t, m)

	src := &recorder{m: m}
	flakySrc := faultinject.NewFlaky(2)
	id, err := m.Submit(Request{
		Kind: KindArchive,
		Source: func(context.Context) (io.Reader, error) {
			return &recordingReader{Reader: flakySrc.Reader(bytes.NewReader(testPayload(4096))), rec: src, i: src.open()}, nil
		},
		ArchiveOptions: core.DefaultOptions(media.Tiny()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, snap, err := m.Wait(context.Background(), id); err != nil || snap.Attempts != 3 {
		t.Fatalf("archive: %v after %d attempts, want success on the third", err, snap.Attempts)
	}
	src.checkClosed(t, 3)

	arch, data := fixture(t)
	sink := &recorder{m: m}
	flakySink := faultinject.NewFlaky(1)
	var out *bytes.Buffer
	req := restoreReq(arch)
	req.Sink = func(context.Context) (io.Writer, error) {
		out = &bytes.Buffer{}
		return &recordingWriter{Writer: flakySink.Writer(out), rec: sink, i: sink.open()}, nil
	}
	if id, err = m.Submit(req); err != nil {
		t.Fatal(err)
	}
	_, snap, err := m.Wait(context.Background(), id)
	if err != nil || snap.State != StateSucceeded || snap.Attempts != 2 {
		t.Fatalf("restore: %s after %d attempts (%v), want success on the second", snap.State, snap.Attempts, err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restored sink differs from the archive")
	}
	sink.checkClosed(t, 2)
	if len(sink.syncState) != 1 || sink.syncState[0] != StateRunning {
		t.Fatalf("sink synced in states %v, want once while running", sink.syncState)
	}
}

// TestSinkSyncFailureFailsJob: a sink that cannot be synced fails its
// job — the output is not durable — and is still closed.
func TestSinkSyncFailureFailsJob(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	defer drain(t, m)

	arch, _ := fixture(t)
	syncErr := errors.New("disk full")
	sink := &recorder{m: m, syncErr: syncErr}
	req := restoreReq(arch)
	req.Sink = func(context.Context) (io.Writer, error) {
		return &recordingWriter{Writer: io.Discard, rec: sink, i: sink.open()}, nil
	}
	id, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	_, snap, err := m.Wait(context.Background(), id)
	if snap.State != StateFailed || !errors.Is(err, syncErr) {
		t.Fatalf("state %s err %v, want failed with the sync error", snap.State, err)
	}
	sink.checkClosed(t, 1)
}
