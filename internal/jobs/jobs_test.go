package jobs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"microlonys/internal/core"
	"microlonys/internal/faultinject"
	"microlonys/internal/mocoder"
	"microlonys/internal/sqldump"
	"microlonys/media"
	"microlonys/tpch"
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

// The shared fixture: one indexed catalog archive of a small TPC-H dump,
// built once — every job test restores, queries or salvages it.
var (
	fixOnce sync.Once
	fixArch *core.Archived
	fixData []byte
	fixErr  error
)

func fixture(t testing.TB) (*core.Archived, []byte) {
	t.Helper()
	fixOnce.Do(func() {
		prof := media.Tiny()
		capacity := mocoder.Capacity(prof.Layout)
		_, db := tpch.FitScaleFactor(40*capacity, 7, sqldump.Dump)
		fixData = sqldump.Dump(db)
		opts := core.DefaultOptions(prof)
		opts.CompressDepth = 1
		opts.SheetFrames = 22
		opts.Catalog = true
		opts.Index = true
		opts.IndexBlockBytes = 4 * capacity
		fixArch, fixErr = core.CreateArchive(fixData, opts)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixArch, fixData
}

func fixtureBag(t *testing.T) []*media.Medium {
	arch, _ := fixture(t)
	var bag []*media.Medium
	for s := 0; s < arch.Volume.Sheets(); s++ {
		m, err := arch.Volume.Sheet(s)
		if err != nil {
			t.Fatal(err)
		}
		bag = append(bag, m)
	}
	return bag
}

func newManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func restoreReq(arch *core.Archived) Request {
	return Request{
		Kind: KindRestore, Volume: arch.Volume, BootstrapText: arch.BootstrapText,
		RestoreOptions: core.RestoreOptions{Mode: core.RestoreNative},
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	defer drain(t, m)
	for _, req := range []Request{
		{Kind: KindArchive},          // no source
		{Kind: KindRestore},          // no volume
		{Kind: KindTable, Table: ""}, // no volume, no table
		{Kind: KindSalvage},          // no sheets
		{Kind: Kind("transmogrify")}, // unknown kind
	} {
		if _, err := m.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("Submit(%+v): got %v, want ErrBadRequest", req.Kind, err)
		}
	}
}

// TestResultsMatchOneShotFacade: every job kind's successful output is
// byte-identical to the corresponding one-shot core call.
func TestResultsMatchOneShotFacade(t *testing.T) {
	arch, data := fixture(t)
	ro := core.RestoreOptions{Mode: core.RestoreNative}
	wantTable, _, err := core.RestoreTable(arch.Volume, arch.BootstrapText, "nation", ro)
	if err != nil {
		t.Fatal(err)
	}
	var wantSalvage bytes.Buffer
	if _, err := core.SalvageTo(&wantSalvage, fixtureBag(t), core.SalvageOptions{Mode: core.RestoreNative}); err != nil {
		t.Fatal(err)
	}

	m := newManager(t, Config{Workers: 3})
	defer drain(t, m)
	ctx := context.Background()

	submit := func(req Request) int64 {
		t.Helper()
		id, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	wait := func(id int64) Result {
		t.Helper()
		res, snap, err := m.Wait(ctx, id)
		if err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		if snap.State != StateSucceeded {
			t.Fatalf("job %d state %s", id, snap.State)
		}
		return res
	}

	restoreID := submit(restoreReq(arch))
	rangeID := submit(Request{
		Kind: KindRange, Volume: arch.Volume, BootstrapText: arch.BootstrapText,
		Off: 128, Length: 512, RestoreOptions: ro,
	})
	tableID := submit(Request{
		Kind: KindTable, Volume: arch.Volume, BootstrapText: arch.BootstrapText,
		Table: "nation", RestoreOptions: ro,
	})
	listID := submit(Request{
		Kind: KindListIndex, Volume: arch.Volume, BootstrapText: arch.BootstrapText,
		RestoreOptions: ro,
	})
	salvageID := submit(Request{
		Kind: KindSalvage, Sheets: fixtureBag(t),
		SalvageOptions: core.SalvageOptions{Mode: core.RestoreNative},
	})
	archiveID := submit(Request{
		Kind:           KindArchive,
		Source:         func(context.Context) (io.Reader, error) { return bytes.NewReader(testPayload(8192)), nil },
		ArchiveOptions: core.DefaultOptions(media.Tiny()),
	})

	if got := wait(restoreID); !bytes.Equal(got.Data, data) {
		t.Fatalf("restore job: %d bytes, want %d identical", len(got.Data), len(data))
	}
	if got := wait(rangeID); !bytes.Equal(got.Data, data[128:128+512]) {
		t.Fatal("range job output differs from the one-shot slice")
	}
	if got := wait(tableID); !bytes.Equal(got.Data, wantTable) {
		t.Fatal("table job output differs from the one-shot call")
	}
	if got := wait(listID); got.Index == nil || len(got.Index.Sections) == 0 {
		t.Fatal("listindex job returned no sections")
	}
	if got := wait(salvageID); !bytes.Equal(got.Data, wantSalvage.Bytes()) {
		t.Fatal("salvage job output differs from the one-shot call")
	}
	res := wait(archiveID)
	if res.Archived == nil {
		t.Fatal("archive job returned no archive")
	}
	back, _, err := core.RestoreVolume(res.Archived.Volume, res.Archived.BootstrapText, ro)
	if err != nil || !bytes.Equal(back, testPayload(8192)) {
		t.Fatalf("archive job roundtrip: %v", err)
	}
}

// TestBackpressure: a full queue sheds load with ErrQueueFull instead of
// buffering, and admitted jobs all finish once the worker frees up.
func TestBackpressure(t *testing.T) {
	m := newManager(t, Config{Workers: 1, QueueDepth: 2})
	defer drain(t, m)

	gate := make(chan struct{})
	blockedReq := Request{
		Kind: KindArchive,
		Source: func(ctx context.Context) (io.Reader, error) {
			select {
			case <-gate:
				return bytes.NewReader(testPayload(4096)), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
		ArchiveOptions: core.DefaultOptions(media.Tiny()),
	}
	// First job: wait until the worker has pulled it off the queue, so
	// the two queue slots are reliably free for the next submissions.
	first, err := m.Submit(blockedReq)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s, _ := m.Job(first); s.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	ids := []int64{first}
	for i := 0; i < 2; i++ { // fill both queue slots
		id, err := m.Submit(blockedReq)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if _, err := m.Submit(blockedReq); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submit: got %v, want ErrQueueFull", err)
	}
	close(gate)
	for _, id := range ids {
		if _, snap, err := m.Wait(context.Background(), id); err != nil || snap.State != StateSucceeded {
			t.Fatalf("job %d: state %s, err %v", id, snap.State, err)
		}
	}
	// With the queue empty again, admission reopens.
	id, err := m.Submit(Request{
		Kind:           KindArchive,
		Source:         func(context.Context) (io.Reader, error) { return bytes.NewReader(testPayload(4096)), nil },
		ArchiveOptions: core.DefaultOptions(media.Tiny()),
	})
	if err != nil {
		t.Fatalf("admission did not reopen: %v", err)
	}
	m.Wait(context.Background(), id)
}

// TestRetryTransientThenSucceed: a source that fails twice with a
// transient fault is retried with backoff and succeeds on the third
// attempt, with the retry count on the record.
func TestRetryTransientThenSucceed(t *testing.T) {
	m := newManager(t, Config{Workers: 1, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond})
	defer drain(t, m)

	flaky := faultinject.NewFlaky(2)
	id, err := m.Submit(Request{
		Kind: KindArchive,
		Source: func(context.Context) (io.Reader, error) {
			return flaky.Reader(bytes.NewReader(testPayload(8192))), nil
		},
		ArchiveOptions: core.DefaultOptions(media.Tiny()),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, snap, err := m.Wait(context.Background(), id)
	if err != nil || snap.State != StateSucceeded {
		t.Fatalf("state %s, err %v", snap.State, err)
	}
	if snap.Retries != 2 || snap.Attempts != 3 {
		t.Fatalf("retries %d attempts %d, want 2 and 3", snap.Retries, snap.Attempts)
	}
	back, _, err := core.RestoreVolume(res.Archived.Volume, res.Archived.BootstrapText,
		core.RestoreOptions{Mode: core.RestoreNative})
	if err != nil || !bytes.Equal(back, testPayload(8192)) {
		t.Fatalf("flaky-source archive did not roundtrip: %v", err)
	}
}

// TestRetryBudgetExhausted: a fault that outlives the retry budget fails
// the job with the transient error preserved.
func TestRetryBudgetExhausted(t *testing.T) {
	m := newManager(t, Config{Workers: 1, MaxRetries: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	defer drain(t, m)

	flaky := faultinject.NewFlaky(100)
	id, err := m.Submit(Request{
		Kind: KindArchive,
		Source: func(context.Context) (io.Reader, error) {
			return flaky.Reader(bytes.NewReader(testPayload(4096))), nil
		},
		ArchiveOptions: core.DefaultOptions(media.Tiny()),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, snap, err := m.Wait(context.Background(), id)
	if snap.State != StateFailed {
		t.Fatalf("state %s, want failed", snap.State)
	}
	if !IsTransient(err) || !errors.Is(err, faultinject.ErrTransient) {
		t.Fatalf("final error %v must preserve the transient cause", err)
	}
	if snap.Attempts != 3 || snap.Retries != 2 {
		t.Fatalf("attempts %d retries %d, want 3 and 2", snap.Attempts, snap.Retries)
	}
}

// TestNonTransientFailsFast: a permanent fault is not retried.
func TestNonTransientFailsFast(t *testing.T) {
	arch, _ := fixture(t)
	m := newManager(t, Config{Workers: 1})
	defer drain(t, m)

	req := restoreReq(arch)
	req.Sink = func(context.Context) (io.Writer, error) { return faultinject.Writer(io.Discard, 64), nil }
	id, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	_, snap, err := m.Wait(context.Background(), id)
	if snap.State != StateFailed || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("state %s err %v, want failed with ErrInjected", snap.State, err)
	}
	if snap.Attempts != 1 {
		t.Fatalf("attempts %d: permanent faults must not be retried", snap.Attempts)
	}
}

// TestPanicIsolation: a job that panics is marked failed with the stack
// captured, and the worker survives to run the next job.
func TestPanicIsolation(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	defer drain(t, m)

	id, err := m.Submit(Request{
		Kind:           KindArchive,
		Source:         func(context.Context) (io.Reader, error) { panic("injected chaos panic") },
		ArchiveOptions: core.DefaultOptions(media.Tiny()),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, snap, err := m.Wait(context.Background(), id)
	if snap.State != StateFailed || !errors.Is(err, ErrPanicked) {
		t.Fatalf("state %s err %v, want failed with ErrPanicked", snap.State, err)
	}
	if snap.Panic == "" {
		t.Fatal("no stack captured")
	}
	if snap.Retries != 0 {
		t.Fatalf("panicked job retried %d times", snap.Retries)
	}
	// The same worker must still be alive and able to run jobs.
	id, err = m.Submit(Request{
		Kind:           KindArchive,
		Source:         func(context.Context) (io.Reader, error) { return bytes.NewReader(testPayload(4096)), nil },
		ArchiveOptions: core.DefaultOptions(media.Tiny()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, snap, err := m.Wait(context.Background(), id); err != nil || snap.State != StateSucceeded {
		t.Fatalf("worker did not survive the panic: state %s err %v", snap.State, err)
	}
}

// panickingWriter is a restore sink whose Write panics.
type panickingWriter struct{}

func (panickingWriter) Write([]byte) (int, error) { panic("injected sink panic") }

// panickingReader is a sized archive source (Len, so the raw planner
// reads it on its own goroutine) whose Read panics.
type panickingReader struct{}

func (panickingReader) Len() int                 { return 30000 }
func (panickingReader) Read([]byte) (int, error) { panic("injected source panic") }

// TestPanicOnCoreGoroutines: a panic on a goroutine that a core call
// started — the restore executor's consumer writing to the sink, the
// archive planner reading the source — fails its job with ErrPanicked
// instead of crashing the process. The snapshot names the panicking
// method, and the next job on the same manager succeeds.
func TestPanicOnCoreGoroutines(t *testing.T) {
	raw := core.DefaultOptions(media.Tiny())
	raw.Compress = false // raw restores write each group from the consumer goroutine
	data := testPayload(20000)
	rawArch, err := core.CreateArchive(data, raw)
	if err != nil {
		t.Fatal(err)
	}
	rawArch.Volume.SetScanner(media.Distortions{}) // CI repeats this test under race
	for _, c := range []struct {
		name, method string
		req          Request
	}{
		{"restore-sink-write", "panickingWriter.Write", Request{
			Kind: KindRestore, Volume: rawArch.Volume, BootstrapText: rawArch.BootstrapText,
			RestoreOptions: core.RestoreOptions{Mode: core.RestoreNative},
			Sink:           func(context.Context) (io.Writer, error) { return panickingWriter{}, nil },
		}},
		{"archive-source-read", "panickingReader.Read", Request{
			Kind:           KindArchive,
			Source:         func(context.Context) (io.Reader, error) { return panickingReader{}, nil },
			ArchiveOptions: raw,
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := newManager(t, Config{Workers: 1})
			defer drain(t, m)
			id, err := m.Submit(c.req)
			if err != nil {
				t.Fatal(err)
			}
			_, snap, err := m.Wait(context.Background(), id)
			if snap.State != StateFailed || !errors.Is(err, ErrPanicked) {
				t.Fatalf("state %s err %v, want failed with ErrPanicked", snap.State, err)
			}
			if !strings.Contains(snap.Panic, c.method) {
				t.Fatalf("snapshot panic does not name %s:\n%s", c.method, snap.Panic)
			}
			id, err = m.Submit(restoreReq(rawArch))
			if err != nil {
				t.Fatal(err)
			}
			res, snap, err := m.Wait(context.Background(), id)
			if err != nil || snap.State != StateSucceeded || !bytes.Equal(res.Data, data) {
				t.Fatalf("next job after the panic: state %s err %v", snap.State, err)
			}
		})
	}
}

// BenchmarkManagerRestore: one fixture restore submitted to an idle
// 2-worker manager and waited for. The job runs at its request's Workers
// (0 = GOMAXPROCS), so at -cpu 1,2 it should scale like a direct call.
func BenchmarkManagerRestore(b *testing.B) {
	arch, data := fixture(b)
	m, err := New(Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Drain(context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := m.Submit(restoreReq(arch))
		if err != nil {
			b.Fatal(err)
		}
		res, _, err := m.Wait(context.Background(), id)
		if err != nil || !bytes.Equal(res.Data, data) {
			b.Fatalf("restore job: %v", err)
		}
	}
}

// TestDeadline: a job that outlives its Timeout fails with
// context.DeadlineExceeded and is not retried (deadlines are the
// caller's word, not a transient fault).
func TestDeadline(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	defer drain(t, m)

	id, err := m.Submit(Request{
		Kind: KindArchive,
		Source: func(context.Context) (io.Reader, error) {
			return faultinject.SlowReader(bytes.NewReader(testPayload(64*1024)), 20*time.Millisecond), nil
		},
		ArchiveOptions: core.DefaultOptions(media.Tiny()),
		Timeout:        30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, snap, err := m.Wait(context.Background(), id)
	if snap.State != StateFailed || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("state %s err %v, want failed with DeadlineExceeded", snap.State, err)
	}
	if snap.Retries != 0 {
		t.Fatal("deadline expiry must not be retried")
	}
}

// TestCancelQueuedAndRunning: cancellation lands wherever the job is —
// a queued job terminates without ever starting, a running one aborts.
func TestCancelQueuedAndRunning(t *testing.T) {
	m := newManager(t, Config{Workers: 1, QueueDepth: 4})
	defer drain(t, m)

	runningID, err := m.Submit(Request{
		Kind: KindArchive,
		Source: func(ctx context.Context) (io.Reader, error) {
			<-ctx.Done() // hold the worker until the job is cancelled
			return nil, ctx.Err()
		},
		ArchiveOptions: core.DefaultOptions(media.Tiny()),
	})
	if err != nil {
		t.Fatal(err)
	}
	queuedID, err := m.Submit(restoreReqFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s, _ := m.Job(runningID); s.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gated job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel(queuedID); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(runningID); err != nil {
		t.Fatal(err)
	}

	_, snap, _ := m.Wait(context.Background(), queuedID)
	if snap.State != StateCancelled {
		t.Fatalf("queued job state %s, want cancelled", snap.State)
	}
	if !snap.StartedAt.IsZero() {
		t.Fatal("cancelled-while-queued job reports a start time")
	}
	_, snap, _ = m.Wait(context.Background(), runningID)
	if snap.State != StateCancelled {
		t.Fatalf("running job state %s, want cancelled", snap.State)
	}
	if err := m.Cancel(99999); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel of unknown id: %v", err)
	}
}

func restoreReqFixture(t *testing.T) Request {
	arch, _ := fixture(t)
	return restoreReq(arch)
}

// TestDrainSemantics: Drain stops admission immediately, lets in-flight
// work finish, and a second drain is an error.
func TestDrainSemantics(t *testing.T) {
	m := newManager(t, Config{Workers: 2})
	var ids []int64
	for i := 0; i < 4; i++ {
		id, err := m.Submit(restoreReqFixture(t))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(restoreReqFixture(t)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
	for _, id := range ids {
		snap, err := m.Job(id)
		if err != nil || snap.State != StateSucceeded {
			t.Fatalf("job %d after graceful drain: state %s err %v", id, snap.State, err)
		}
	}
	if err := m.Drain(ctx); err == nil {
		t.Fatal("second drain must error")
	}
}

// TestDrainDeadlineCancelsStragglers: when the drain deadline passes,
// in-flight jobs are cancelled rather than held onto forever.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	m := newManager(t, Config{Workers: 1})
	id, err := m.Submit(Request{
		Kind: KindArchive,
		Source: func(ctx context.Context) (io.Reader, error) {
			<-ctx.Done() // only the forced drain can unblock this job
			return nil, ctx.Err()
		},
		ArchiveOptions: core.DefaultOptions(media.Tiny()),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Job(id)
	if err != nil || snap.State != StateCancelled {
		t.Fatalf("straggler after forced drain: state %s err %v, want cancelled", snap.State, err)
	}
}
