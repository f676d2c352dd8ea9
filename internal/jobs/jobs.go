// Package jobs runs many concurrent archive/restore/salvage/range-query
// jobs. It is the long-running service layer the one-shot core facade
// lacks: a Manager owns K workers, a bounded admission queue that sheds
// load instead of buffering without limit, per-job deadlines and
// cancellation, retry-with-backoff for transient I/O faults, panic
// isolation so one poisoned job cannot take the process down — a panic
// on any goroutine of its core call included — and an append-only JSONL
// journal that survives a crash and replays on restart.
//
// Concurrency is bounded at two levels. The manager's K workers bound
// how many jobs are in flight. Each job runs its core call with its
// request's Workers (0 = GOMAXPROCS), and the core bounds CPU for the
// whole process: every frame task of every call holds one of GOMAXPROCS
// frame slots, handed out in arrival order, and borrows its scratch only
// while it does. So a lone job decodes on every idle core, K busy jobs
// share the same slots instead of stacking per-call pools, and the
// manager holds no core state.
package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"microlonys/internal/archindex"
	"microlonys/internal/core"
	"microlonys/media"
)

// Kind names the operation a job performs.
type Kind string

const (
	KindArchive   Kind = "archive"
	KindRestore   Kind = "restore"
	KindRange     Kind = "range"
	KindTable     Kind = "table"
	KindListIndex Kind = "listindex"
	KindSalvage   Kind = "salvage"
)

// State is a job's lifecycle position. Terminal states are Succeeded,
// Failed and Cancelled; everything reaches one of them exactly once.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateRetrying  State = "retrying"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateInterrupted only appears in replayed journals: the job was
	// non-terminal when the previous process stopped.
	StateInterrupted State = "interrupted"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

var (
	// ErrQueueFull is returned by Submit when the admission queue is at
	// capacity — the caller should back off (HTTP layers map it to 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining is returned by Submit after Drain has begun.
	ErrDraining = errors.New("jobs: manager draining")
	// ErrPanicked wraps the first line of the recovered value of a job
	// that panicked; the whole value and the stack are preserved in the
	// job's snapshot.
	ErrPanicked = errors.New("jobs: job panicked")
	// ErrUnknownJob is returned for an ID the manager has never issued.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrBadRequest is returned by Submit for a request missing the
	// inputs its kind needs.
	ErrBadRequest = errors.New("jobs: bad request")
)

// Request describes one job. Inputs are factories where retries need a
// fresh end per attempt: Source reopens the archive input stream, Sink
// reopens the restore output. Factories receive the job's context —
// cancelled on Cancel, deadline expiry or forced drain — and should
// abort rather than block past it. Whatever a factory returns is closed
// at the end of its attempt when it is an io.Closer, and a sink with a
// Sync method is synced before its job is reported succeeded. A nil Sink
// captures output in memory and returns it in Result.Data.
type Request struct {
	Kind Kind

	// Archive inputs.
	Source         func(ctx context.Context) (io.Reader, error)
	ArchiveOptions core.Options

	// Restore-family inputs.
	Volume         *media.Volume
	BootstrapText  string
	RestoreOptions core.RestoreOptions
	Sink           func(ctx context.Context) (io.Writer, error)
	Off, Length    int // KindRange
	Table          string

	// Salvage inputs.
	Sheets         []*media.Medium
	SalvageOptions core.SalvageOptions

	// Timeout, when positive, bounds the job's total wall clock across
	// all retry attempts. Context, when non-nil, is the job's parent
	// context — cancelling it cancels the job wherever it is.
	Timeout time.Duration
	Context context.Context

	// MaxRetries overrides the manager's retry budget for this job:
	// 0 means the manager default, negative means no retries.
	MaxRetries int
}

// Result carries a succeeded job's outputs; fields are kind-specific.
type Result struct {
	Archived *core.Archived      // KindArchive
	Data     []byte              // restore family with a nil Sink
	Stats    *core.RestoreStats  // restore family
	Report   *core.SalvageReport // KindSalvage
	Index    *archindex.Index    // KindListIndex
}

// Snapshot is a point-in-time view of a job, safe to serialise.
type Snapshot struct {
	ID       int64  `json:"id"`
	Kind     Kind   `json:"kind"`
	State    State  `json:"state"`
	Attempts int    `json:"attempts"`
	Retries  int    `json:"retries"`
	Err      string `json:"err,omitempty"`
	Panic    string `json:"panic,omitempty"` // panic value and stacks, if the job panicked

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`

	// BytesOut counts bytes delivered to the job's sink so far — a live
	// progress figure for restores, final for terminal jobs.
	BytesOut int64 `json:"bytes_out"`
}

// Config sizes a Manager.
type Config struct {
	// Workers is how many jobs run at once (defaults to 2): each worker
	// runs one job at a time. A job's own parallelism is its request's
	// Workers option, and the core caps all jobs together at GOMAXPROCS
	// running frame tasks.
	Workers int
	// QueueDepth bounds admitted-but-unstarted jobs (defaults to 16).
	// Submit sheds load with ErrQueueFull beyond it.
	QueueDepth int
	// MaxRetries is the default transient-fault retry budget per job
	// (defaults to 3; a request can override).
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the exponential retry delay:
	// attempt n sleeps a jittered min(MaxBackoff, BaseBackoff<<(n-1)).
	// Defaults: 10ms base, 1s cap.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JournalPath, when set, appends a JSONL event log the manager
	// fsyncs on terminal events; an existing journal is replayed into
	// Recovered() and IDs continue after it.
	JournalPath string
	// Seed feeds the jitter RNG (0 means 1, for determinism).
	Seed int64
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

type job struct {
	id  int64
	req Request

	ctx    context.Context
	cancel context.CancelFunc

	done     chan struct{} // closed exactly once, on reaching a terminal state
	bytesOut atomic.Int64

	mu         sync.Mutex // guards the mutable snapshot fields below
	state      State
	attempts   int
	retries    int
	err        error
	panicStack string
	submitted  time.Time
	started    time.Time
	finished   time.Time
	result     Result
}

func (j *job) snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID: j.id, Kind: j.req.Kind, State: j.state,
		Attempts: j.attempts, Retries: j.retries,
		Panic:       j.panicStack,
		SubmittedAt: j.submitted, StartedAt: j.started, FinishedAt: j.finished,
		BytesOut: j.bytesOut.Load(),
	}
	if j.err != nil {
		s.Err = j.err.Error()
	}
	return s
}

// Manager owns the worker pool, the admission queue and the journal.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	jobs      map[int64]*job
	order     []int64 // submission order, for stable listings
	nextID    int64
	draining  bool
	recovered []Snapshot
	rng       *rand.Rand

	queue   chan *job
	workers sync.WaitGroup
	journal *journal
}

// New builds a Manager, replays any existing journal at cfg.JournalPath,
// starts the worker pool, and is ready to accept Submit calls.
func New(cfg Config) (*Manager, error) {
	cfg.fill()
	m := &Manager{
		cfg:   cfg,
		jobs:  make(map[int64]*job),
		queue: make(chan *job, cfg.QueueDepth),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.JournalPath != "" {
		recovered, err := ReplayJournal(cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("jobs: replaying journal: %w", err)
		}
		m.recovered = recovered
		for _, s := range recovered {
			if s.ID > m.nextID {
				m.nextID = s.ID
			}
		}
		j, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		m.journal = j
	}
	for i := 0; i < cfg.Workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	return m, nil
}

// Recovered returns the jobs replayed from a pre-existing journal.
// Jobs that were non-terminal when the previous process stopped are
// reported as StateInterrupted — the caller decides whether to resubmit.
func (m *Manager) Recovered() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, len(m.recovered))
	copy(out, m.recovered)
	return out
}

// Submit admits a job without blocking: a full queue returns
// ErrQueueFull, a draining manager ErrDraining. On success the job is
// queued and its ID returned.
func (m *Manager) Submit(req Request) (int64, error) {
	if err := validate(req); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return 0, ErrDraining
	}
	m.nextID++
	parent := req.Context
	if parent == nil {
		parent = context.Background()
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if req.Timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, req.Timeout)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	j := &job{
		id: m.nextID, req: req,
		ctx: ctx, cancel: cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}
	select {
	case m.queue <- j:
	default:
		cancel()
		m.nextID--
		return 0, ErrQueueFull
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.journalEvent(event{T: "submit", ID: j.id, Kind: j.req.Kind}, false)
	return j.id, nil
}

func validate(req Request) error {
	switch req.Kind {
	case KindArchive:
		if req.Source == nil {
			return fmt.Errorf("%w: archive needs a Source", ErrBadRequest)
		}
	case KindRestore, KindRange, KindListIndex:
		if req.Volume == nil {
			return fmt.Errorf("%w: %s needs a Volume", ErrBadRequest, req.Kind)
		}
	case KindTable:
		if req.Volume == nil || req.Table == "" {
			return fmt.Errorf("%w: table needs a Volume and a Table", ErrBadRequest)
		}
	case KindSalvage:
		if len(req.Sheets) == 0 {
			return fmt.Errorf("%w: salvage needs Sheets", ErrBadRequest)
		}
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadRequest, req.Kind)
	}
	return nil
}

// Cancel cancels a job wherever it is — queued jobs terminate without
// running, running jobs abort at the pipeline's next cancellation point.
func (m *Manager) Cancel(id int64) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return ErrUnknownJob
	}
	j.cancel()
	return nil
}

// Job returns one job's snapshot.
func (m *Manager) Job(id int64) (Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Snapshot{}, ErrUnknownJob
	}
	return j.snapshot(), nil
}

// Jobs lists every job this manager has admitted, in submission order.
func (m *Manager) Jobs() []Snapshot {
	m.mu.Lock()
	ids := make([]int64, len(m.order))
	copy(ids, m.order)
	js := make([]*job, 0, len(ids))
	for _, id := range ids {
		js = append(js, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Snapshot, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	return out
}

// Wait blocks until the job reaches a terminal state or ctx expires,
// then returns the job's result (zero unless it succeeded), its final
// snapshot, and the job's error if it did not succeed.
func (m *Manager) Wait(ctx context.Context, id int64) (Result, Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Result{}, Snapshot{}, ErrUnknownJob
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return Result{}, j.snapshot(), ctx.Err()
	}
	j.mu.Lock()
	res, err := j.result, j.err
	j.mu.Unlock()
	return res, j.snapshot(), err
}

// Drain stops admission, lets queued and running jobs finish until ctx
// expires, then cancels whatever is still in flight, waits for the pool
// to empty, and flushes and closes the journal. Safe to call once;
// Submit returns ErrDraining from the moment it begins.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return errors.New("jobs: already draining")
	}
	m.draining = true
	close(m.queue) // Submit holds mu while sending, so no send can race this
	m.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(finished)
	}()
	graceful := true
	select {
	case <-finished:
	case <-ctx.Done():
		graceful = false
		m.mu.Lock()
		for _, j := range m.jobs {
			j.cancel()
		}
		m.mu.Unlock()
		<-finished // cancellation unblocks every pipeline; the pool empties
	}
	m.journalEvent(event{T: "drain", Graceful: graceful}, true)
	if m.journal != nil {
		return m.journal.close()
	}
	return nil
}

func (m *Manager) journalEvent(ev event, sync bool) {
	if m.journal == nil {
		return
	}
	ev.TS = time.Now()
	m.journal.write(ev, sync)
}

// worker runs queued jobs serially until the queue closes.
func (m *Manager) worker() {
	defer m.workers.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

func (m *Manager) runJob(j *job) {
	defer j.cancel() // release the deadline timer whatever happens

	if err := j.ctx.Err(); err != nil {
		// Cancelled while queued: terminal without ever running.
		m.finish(j, Result{}, fmt.Errorf("jobs: cancelled while queued: %w", err))
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	m.journalEvent(event{T: "start", ID: j.id, Kind: j.req.Kind}, false)

	maxRetries := m.cfg.MaxRetries
	if j.req.MaxRetries < 0 {
		maxRetries = 0
	} else if j.req.MaxRetries > 0 {
		maxRetries = j.req.MaxRetries
	}

	var res Result
	var err error
	for attempt := 1; ; attempt++ {
		j.mu.Lock()
		j.attempts = attempt
		j.state = StateRunning
		j.mu.Unlock()

		res, err = m.attempt(j)
		if err == nil || j.ctx.Err() != nil ||
			errors.Is(err, ErrPanicked) || !IsTransient(err) || attempt > maxRetries {
			break
		}

		j.mu.Lock()
		j.state = StateRetrying
		j.retries++
		j.mu.Unlock()
		m.journalEvent(event{T: "retry", ID: j.id, Attempt: attempt, Err: err.Error()}, false)
		if !m.backoff(j.ctx, attempt) {
			err = fmt.Errorf("jobs: cancelled during retry backoff: %w", j.ctx.Err())
			break
		}
	}
	m.finish(j, res, err)
}

// backoff sleeps the jittered exponential delay for the given attempt;
// it reports false if ctx expired first.
func (m *Manager) backoff(ctx context.Context, attempt int) bool {
	d := m.cfg.BaseBackoff << (attempt - 1)
	if d > m.cfg.MaxBackoff || d <= 0 {
		d = m.cfg.MaxBackoff
	}
	m.mu.Lock()
	d = d/2 + time.Duration(m.rng.Int63n(int64(d/2)+1))
	m.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// attempt runs one try of the job's operation, isolating panics: a
// panicking job returns ErrPanicked with the stack captured instead of
// unwinding into the worker loop. A panic on a goroutine that a core call
// started reaches here too: the call re-raises it on this goroutine with
// a value whose message carries the panicking goroutine's stack.
func (m *Manager) attempt(j *job) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprint(r)
			j.mu.Lock()
			j.panicStack = msg + "\n\n" + string(debug.Stack())
			j.mu.Unlock()
			first, _, _ := strings.Cut(msg, "\n")
			res = Result{}
			err = fmt.Errorf("%w: %s", ErrPanicked, first)
		}
	}()

	// Each attempt writes into a fresh sink so a failed attempt's
	// partial output never leaks into the final result. The sink is
	// closed when the attempt ends, whatever its outcome, and a sink that
	// fails to close fails the attempt.
	j.bytesOut.Store(0)
	var out io.Writer
	if j.req.Sink != nil && (j.req.Kind == KindRestore || j.req.Kind == KindSalvage) {
		if out, err = j.req.Sink(j.ctx); err != nil {
			return Result{}, fmt.Errorf("jobs: opening sink: %w", err)
		}
		defer func() {
			if cerr := closeIfCloser(out); cerr != nil && err == nil {
				res, err = Result{}, fmt.Errorf("jobs: closing sink: %w", cerr)
			}
		}()
	}
	if res, err = run(j, out); err != nil {
		return Result{}, err
	}
	// Terminal means visible: a succeeded job's output is durable before
	// the job reports success.
	if s, ok := out.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			return Result{}, fmt.Errorf("jobs: syncing sink: %w", err)
		}
	}
	return res, nil
}

// run performs the job's operation once, writing restore and salvage
// output to out (nil: an in-memory buffer returned in Result.Data, where
// range and table answers always go). Every
// operation runs with its request's Workers (0 = GOMAXPROCS): the core's
// frame slots, not the job, bound how many frames decode or encode at
// once across all jobs, so a job alone on the manager uses every core.
func run(j *job, out io.Writer) (Result, error) {
	var buf *bytes.Buffer
	if out == nil {
		buf = &bytes.Buffer{}
		out = buf
	}
	sink := &countingWriter{w: out, n: &j.bytesOut}
	data := func() []byte {
		if buf == nil {
			return nil
		}
		return buf.Bytes()
	}
	ro := j.req.RestoreOptions
	ro.Context = j.ctx

	switch j.req.Kind {
	case KindArchive:
		r, err := j.req.Source(j.ctx)
		if err != nil {
			return Result{}, fmt.Errorf("jobs: opening source: %w", err)
		}
		defer closeIfCloser(r)
		opts := j.req.ArchiveOptions
		opts.Context = j.ctx
		arch, err := core.CreateArchiveStream(r, opts)
		if err != nil {
			return Result{}, err
		}
		return Result{Archived: arch}, nil

	case KindRestore, KindRange, KindTable:
		r, err := core.Open(j.req.Volume, j.req.BootstrapText, ro)
		if err != nil {
			return Result{}, err
		}
		var st *core.RestoreStats
		switch j.req.Kind {
		case KindRestore:
			st, err = r.Restore(sink)
		case KindRange:
			st, err = r.Range(sink, j.req.Off, j.req.Length)
		default:
			st, err = r.Section(sink, j.req.Table)
		}
		if err != nil {
			return Result{}, err
		}
		return Result{Stats: st, Data: data()}, nil

	case KindListIndex:
		r, err := core.Open(j.req.Volume, j.req.BootstrapText, ro)
		if err != nil {
			return Result{}, err
		}
		x, st, err := r.Index()
		if err != nil {
			return Result{}, err
		}
		return Result{Index: x, Stats: st}, nil

	case KindSalvage:
		so := j.req.SalvageOptions
		so.Context = j.ctx
		rep, err := core.SalvageTo(sink, j.req.Sheets, so)
		if err != nil {
			return Result{}, err
		}
		return Result{Report: rep, Data: data()}, nil
	}
	return Result{}, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, j.req.Kind)
}

// closeIfCloser closes what a factory returned when it can be closed.
func closeIfCloser(v any) error {
	if c, ok := v.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// finish moves a job to its terminal state and journals it durably.
func (m *Manager) finish(j *job, res Result, err error) {
	state := StateSucceeded
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state = StateCancelled
	default:
		state = StateFailed
	}
	j.mu.Lock()
	j.state = state
	j.err = err
	j.result = res
	j.finished = time.Now()
	attempts, retries := j.attempts, j.retries
	j.mu.Unlock()
	ev := event{T: "done", ID: j.id, Kind: j.req.Kind, State: state, Attempt: attempts, Retries: retries}
	if err != nil {
		ev.Err = err.Error()
	}
	m.journalEvent(ev, true)
	close(j.done)
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}
