package jobs

// The acceptance gauntlet for the job service: 21 concurrent jobs of
// every kind against one 4-worker pool, with flaky and slow I/O ends,
// per-job timeouts, mid-run cancellations and one injected panic — every
// job must reach a terminal state, the process and pool must survive, no
// goroutines or file descriptors may leak, successful outputs must be
// byte-identical to the one-shot facade calls, and the journal must
// replay the whole story after a restart.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"microlonys/internal/core"
	"microlonys/internal/faultinject"
	"microlonys/media"
)

func TestChaosAcceptance(t *testing.T) {
	arch, data := fixture(t)
	ro := core.RestoreOptions{Mode: core.RestoreNative}

	// One-shot facade results the jobs' outputs must match byte for byte.
	wantTable, _, err := restoreTable(arch.Volume, arch.BootstrapText, "nation", ro)
	if err != nil {
		t.Fatal(err)
	}
	var wantSalvage bytes.Buffer
	if _, err := core.SalvageTo(&wantSalvage, fixtureBag(t), core.SalvageOptions{Mode: core.RestoreNative}); err != nil {
		t.Fatal(err)
	}

	goroutinesBefore := runtime.NumGoroutine()
	fdsBefore := openFDs()
	journalPath := filepath.Join(t.TempDir(), "jobs.journal")
	m := newManager(t, Config{
		Workers: 4, QueueDepth: 32, MaxRetries: 3,
		BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
		JournalPath: journalPath, Seed: 42,
	})

	type expectation struct {
		id    int64
		label string
		state State
		check func(t *testing.T, res Result, snap Snapshot, err error)
	}
	var expects []expectation
	submit := func(label string, state State, req Request, check func(*testing.T, Result, Snapshot, error)) int64 {
		t.Helper()
		id, err := m.Submit(req)
		if err != nil {
			t.Fatalf("submit %s: %v", label, err)
		}
		expects = append(expects, expectation{id: id, label: label, state: state, check: check})
		return id
	}

	// 4 clean full restores.
	for i := 0; i < 4; i++ {
		req := restoreReq(arch)
		req.Timeout = 10 * time.Minute
		submit("restore-clean", StateSucceeded, req,
			func(t *testing.T, res Result, _ Snapshot, _ error) {
				if !bytes.Equal(res.Data, data) {
					t.Error("restore output differs from the one-shot call")
				}
			})
	}

	// 3 archives whose source fails twice with a transient fault — the
	// retry loop must carry them to success.
	payload := testPayload(8192)
	for i := 0; i < 3; i++ {
		flaky := faultinject.NewFlaky(2)
		submit("archive-flaky-source", StateSucceeded, Request{
			Kind: KindArchive,
			Source: func(context.Context) (io.Reader, error) {
				return flaky.Reader(bytes.NewReader(payload)), nil
			},
			ArchiveOptions: core.DefaultOptions(media.Tiny()),
			Timeout:        10 * time.Minute,
		}, func(t *testing.T, res Result, snap Snapshot, _ error) {
			if snap.Retries != 2 {
				t.Errorf("retries %d, want 2", snap.Retries)
			}
			back, _, err := restoreVolume(res.Archived.Volume, res.Archived.BootstrapText, ro)
			if err != nil || !bytes.Equal(back, payload) {
				t.Errorf("flaky archive did not roundtrip: %v", err)
			}
		})
	}

	// 2 restores whose sink fails once transiently, then delivers.
	for i := 0; i < 2; i++ {
		flaky := faultinject.NewFlaky(1)
		var last *bytes.Buffer
		req := restoreReq(arch)
		req.Timeout = 10 * time.Minute
		req.Sink = func(context.Context) (io.Writer, error) {
			last = &bytes.Buffer{} // fresh buffer per attempt; only the last holds the result
			return flaky.Writer(last), nil
		}
		submit("restore-flaky-sink", StateSucceeded, req,
			func(t *testing.T, _ Result, snap Snapshot, _ error) {
				if snap.Retries != 1 {
					t.Errorf("retries %d, want 1", snap.Retries)
				}
				if last == nil || !bytes.Equal(last.Bytes(), data) {
					t.Error("flaky-sink restore did not deliver identical bytes")
				}
			})
	}

	// 2 archives too slow for their deadline.
	for i := 0; i < 2; i++ {
		submit("archive-deadline", StateFailed, Request{
			Kind: KindArchive,
			Source: func(context.Context) (io.Reader, error) {
				return faultinject.SlowReader(bytes.NewReader(testPayload(64*1024)), 20*time.Millisecond), nil
			},
			ArchiveOptions: core.DefaultOptions(media.Tiny()),
			Timeout:        40 * time.Millisecond,
		}, func(t *testing.T, _ Result, snap Snapshot, err error) {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("err %v, want DeadlineExceeded", err)
			}
			if snap.Retries != 0 {
				t.Error("deadline expiry was retried")
			}
		})
	}

	// 2 jobs cancelled mid-run (their source holds until cancellation).
	var cancelIDs []int64
	for i := 0; i < 2; i++ {
		id := submit("cancel-mid-run", StateCancelled, Request{
			Kind: KindArchive,
			Source: func(ctx context.Context) (io.Reader, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			},
			ArchiveOptions: core.DefaultOptions(media.Tiny()),
			Timeout:        10 * time.Minute,
		}, nil)
		cancelIDs = append(cancelIDs, id)
	}

	// 2 range queries, 1 table query, 1 index listing, 1 salvage.
	for i := 0; i < 2; i++ {
		off := 128 + i*1024
		submit("range", StateSucceeded, Request{
			Kind: KindRange, Volume: arch.Volume, BootstrapText: arch.BootstrapText,
			Off: off, Length: 512, RestoreOptions: ro, Timeout: 10 * time.Minute,
		}, func(t *testing.T, res Result, _ Snapshot, _ error) {
			if !bytes.Equal(res.Data, data[off:off+512]) {
				t.Error("range output differs from the one-shot slice")
			}
		})
	}
	submit("table", StateSucceeded, Request{
		Kind: KindTable, Volume: arch.Volume, BootstrapText: arch.BootstrapText,
		Table: "nation", RestoreOptions: ro, Timeout: 10 * time.Minute,
	}, func(t *testing.T, res Result, _ Snapshot, _ error) {
		if !bytes.Equal(res.Data, wantTable) {
			t.Error("table output differs from the one-shot call")
		}
	})
	submit("listindex", StateSucceeded, Request{
		Kind: KindListIndex, Volume: arch.Volume, BootstrapText: arch.BootstrapText,
		RestoreOptions: ro, Timeout: 10 * time.Minute,
	}, func(t *testing.T, res Result, _ Snapshot, _ error) {
		if res.Index == nil || len(res.Index.Sections) == 0 {
			t.Error("listindex returned no sections")
		}
	})
	submit("salvage", StateSucceeded, Request{
		Kind: KindSalvage, Sheets: fixtureBag(t),
		SalvageOptions: core.SalvageOptions{Mode: core.RestoreNative},
		Timeout:        10 * time.Minute,
	}, func(t *testing.T, res Result, _ Snapshot, _ error) {
		if !bytes.Equal(res.Data, wantSalvage.Bytes()) {
			t.Error("salvage output differs from the one-shot call")
		}
	})

	// 1 injected panic.
	submit("panic", StateFailed, Request{
		Kind:           KindArchive,
		Source:         func(context.Context) (io.Reader, error) { panic("chaos: injected panic") },
		ArchiveOptions: core.DefaultOptions(media.Tiny()),
		Timeout:        10 * time.Minute,
	}, func(t *testing.T, _ Result, snap Snapshot, err error) {
		if !errors.Is(err, ErrPanicked) || snap.Panic == "" {
			t.Errorf("panic job: err %v, stack %d bytes", err, len(snap.Panic))
		}
	})

	// 2 restores into permanently failing sinks — no retry, clean failure.
	for i := 0; i < 2; i++ {
		req := restoreReq(arch)
		req.Timeout = 10 * time.Minute
		req.Sink = func(context.Context) (io.Writer, error) {
			return faultinject.Writer(io.Discard, 256), nil
		}
		submit("restore-dead-sink", StateFailed, req,
			func(t *testing.T, _ Result, snap Snapshot, err error) {
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Errorf("err %v, want ErrInjected", err)
				}
				if snap.Attempts != 1 {
					t.Errorf("attempts %d: permanent sink faults must not be retried", snap.Attempts)
				}
			})
	}

	if len(expects) < 20 {
		t.Fatalf("only %d jobs submitted; the gauntlet needs at least 20", len(expects))
	}

	// Fire the mid-run cancellations once their jobs are actually running.
	for _, id := range cancelIDs {
		deadline := time.Now().Add(30 * time.Second)
		for {
			if s, _ := m.Job(id); s.State == StateRunning {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never started", id)
			}
			time.Sleep(time.Millisecond)
		}
		if err := m.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}

	// Every job must reach its expected terminal state.
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer waitCancel()
	finals := map[int64]Snapshot{}
	for _, ex := range expects {
		res, snap, err := m.Wait(waitCtx, ex.id)
		if !snap.State.Terminal() {
			t.Fatalf("%s (job %d) not terminal: %s", ex.label, ex.id, snap.State)
		}
		if snap.State != ex.state {
			t.Errorf("%s (job %d): state %s, want %s (err %v)", ex.label, ex.id, snap.State, ex.state, err)
		} else if ex.check != nil {
			ex.check(t, res, snap, err)
		}
		finals[ex.id] = snap
	}

	// Drain cleanly, then the journal must tell the same story.
	drain(t, m)
	replayed, err := ReplayJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(expects) {
		t.Fatalf("journal replays %d jobs, want %d", len(replayed), len(expects))
	}
	for _, s := range replayed {
		want, ok := finals[s.ID]
		if !ok {
			t.Fatalf("journal invented job %d", s.ID)
		}
		if s.State != want.State || s.Retries != want.Retries ||
			s.Attempts != want.Attempts || s.Err != want.Err {
			t.Errorf("journal job %d: state %s retries %d attempts %d err %q, live %s/%d/%d/%q",
				s.ID, s.State, s.Retries, s.Attempts, s.Err,
				want.State, want.Retries, want.Attempts, want.Err)
		}
	}

	// The journal and every job's ends must be closed.
	if n := openFDs(); fdsBefore >= 0 && n > fdsBefore {
		t.Fatalf("descriptors leaked: %d before, %d after the drain", fdsBefore, n)
	}

	// The pool must be gone: no leaked goroutines.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= goroutinesBefore+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", goroutinesBefore, runtime.NumGoroutine())
}

// openFDs counts the process's open descriptors, or returns -1 where
// /proc/self/fd does not exist.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestJournalRestartReplay: a new manager over an old journal recovers
// every job with its terminal state and continues IDs after them.
func TestJournalRestartReplay(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "jobs.journal")

	m := newManager(t, Config{Workers: 1, JournalPath: journalPath})
	okID, err := m.Submit(restoreReqFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	failID, err := m.Submit(Request{
		Kind:           KindArchive,
		Source:         func(context.Context) (io.Reader, error) { panic("boom") },
		ArchiveOptions: core.DefaultOptions(media.Tiny()),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Wait(context.Background(), okID)
	m.Wait(context.Background(), failID)
	drain(t, m)

	m2 := newManager(t, Config{Workers: 1, JournalPath: journalPath})
	rec := m2.Recovered()
	if len(rec) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(rec))
	}
	byID := map[int64]Snapshot{}
	for _, s := range rec {
		byID[s.ID] = s
	}
	if byID[okID].State != StateSucceeded || byID[failID].State != StateFailed {
		t.Fatalf("recovered states %s/%s, want succeeded/failed", byID[okID].State, byID[failID].State)
	}
	if byID[failID].Err == "" {
		t.Fatal("recovered failure lost its error")
	}
	// IDs continue after the replayed history.
	id, err := m2.Submit(restoreReqFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if id <= failID {
		t.Fatalf("new ID %d does not continue after recovered %d", id, failID)
	}
	m2.Wait(context.Background(), id)
	drain(t, m2)
}

// TestJournalCrashArtifacts: a journal that stops mid-story — a job with
// no terminal event, a torn final line — replays to the last good line
// with the unfinished job reported as interrupted.
func TestJournalCrashArtifacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crashed.journal")
	lines := `{"t":"submit","ts":"2026-08-08T10:00:00Z","id":1,"kind":"restore"}
{"t":"start","ts":"2026-08-08T10:00:01Z","id":1,"kind":"restore"}
{"t":"submit","ts":"2026-08-08T10:00:02Z","id":2,"kind":"archive"}
{"t":"done","ts":"2026-08-08T10:00:03Z","id":2,"kind":"archive","state":"succeeded"}
{"t":"submit","ts":"2026-08-08T10:00:04Z","id":3,"ki` // torn mid-write by the crash
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 2 {
		t.Fatalf("replayed %d jobs, want 2 (the torn third must be dropped)", len(rec))
	}
	if rec[0].ID != 1 || rec[0].State != StateInterrupted {
		t.Fatalf("job 1: %+v, want interrupted", rec[0])
	}
	if rec[0].StartedAt.IsZero() {
		t.Fatal("interrupted job lost its start time")
	}
	if rec[1].ID != 2 || rec[1].State != StateSucceeded {
		t.Fatalf("job 2: %+v, want succeeded", rec[1])
	}
	// A missing journal is an empty history, not an error.
	if rec, err := ReplayJournal(filepath.Join(t.TempDir(), "absent")); err != nil || len(rec) != 0 {
		t.Fatalf("absent journal: %v, %d jobs", err, len(rec))
	}
}
