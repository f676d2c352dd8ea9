// Command microlonysd is the archival job service: a long-running HTTP
// daemon that runs many concurrent archive/restore/salvage/range-query
// jobs (internal/jobs). -workers sets how many jobs run at once; each job
// decodes or encodes on every core the others leave idle, because all
// jobs share the core's GOMAXPROCS frame slots.
//
//	microlonysd [-addr :8732] [-workers 4] [-queue 32] [-retries 3]
//	            [-journal PATH] [-drain 30s] [-profile paper|microfilm|cinema|tiny]
//	            [-compress=true]
//
// Archives are held in memory keyed by name: an archive job reads a file
// from disk, and its result is the named volume; restore, range, table,
// listindex and salvage jobs operate on the newest succeeded archive of
// that name. Jobs are asynchronous: submission returns a job ID, progress
// and results are polled.
//
// Endpoints:
//
//	POST /v1/archive    {"name","input",...}        file -> stored archive
//	POST /v1/restore    {"name","output"?}          stored archive -> bytes or file
//	POST /v1/range      {"name","off","length"}     byte range of the payload
//	POST /v1/table      {"name","table"}            one SQL-dump table's rows
//	POST /v1/listindex  {"name"}                    index summary, no payload decode
//	POST /v1/salvage    {"name","output"?}          best-effort loose-sheet restore
//	GET  /v1/jobs                                   every job's snapshot
//	GET  /v1/jobs/{id}                              one job's snapshot
//	GET  /v1/jobs/{id}/result                       a finished job's bytes
//	DELETE /v1/jobs/{id}                            cancel
//	GET  /v1/recovered                              jobs replayed from the journal
//	GET  /healthz                                   process liveness (always 200)
//	GET  /readyz                                    503 once draining begins
//
// A full queue answers 429; submissions during drain answer 503. On
// SIGTERM or SIGINT the daemon stops admitting, lets in-flight jobs
// finish within the -drain budget (cancelling stragglers past it),
// fsyncs and closes the journal, then exits 0.
//
// The -chaos-source-failures and -chaos-slow-source flags inject
// deterministic faults into every archive job's input stream; they exist
// for the chaos smoke test and for rehearsing operational runbooks.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"microlonys/internal/core"
	"microlonys/internal/faultinject"
	"microlonys/internal/jobs"
	"microlonys/media"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintf(os.Stderr, "microlonysd: %v\n", err)
		os.Exit(1)
	}
}

type server struct {
	mgr      *jobs.Manager
	opts     core.Options // archive defaults for the chosen profile
	draining atomic.Bool

	chaosFailures int           // transient source failures injected per archive job
	chaosSlow     time.Duration // latency injected per source read

	// names maps an archive name to its archive jobs' ids in submission
	// order. The volumes themselves live in the manager's job results, so
	// an archive is visible the moment its job is reported succeeded.
	mu    sync.Mutex
	names map[string][]int64
}

// run parses flags, starts the manager and the HTTP listener, and blocks
// until SIGTERM/SIGINT triggers a graceful drain. When ready is non-nil
// it receives the bound address once the listener is up (tests bind
// ":0" and read the port from here).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("microlonysd", flag.ContinueOnError)
	addr := fs.String("addr", ":8732", "listen address")
	workers := fs.Int("workers", 4, "jobs run at once (all jobs share GOMAXPROCS frame slots)")
	queue := fs.Int("queue", 32, "admission queue depth; beyond it submissions get 429")
	retries := fs.Int("retries", 3, "retry budget for transient I/O faults per job")
	journal := fs.String("journal", "", "append-only JSONL job journal path (empty: no journal)")
	drainBudget := fs.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM")
	profile := fs.String("profile", "paper", "media profile: "+media.ProfileNames)
	compress := fs.Bool("compress", true, "run DBCoder on archive payloads")
	chaosFailures := fs.Int("chaos-source-failures", 0, "inject N transient failures into every archive source (testing)")
	chaosSlow := fs.Duration("chaos-slow-source", 0, "inject per-read latency into every archive source (testing)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	prof, err := media.ProfileByName(*profile)
	if err != nil {
		return err
	}

	mgr, err := jobs.New(jobs.Config{
		Workers: *workers, QueueDepth: *queue, MaxRetries: *retries,
		JournalPath: *journal,
	})
	if err != nil {
		return err
	}
	opts := core.DefaultOptions(prof)
	opts.Compress = *compress
	s := &server{
		mgr: mgr, opts: opts,
		chaosFailures: *chaosFailures, chaosSlow: *chaosSlow,
		names: make(map[string][]int64),
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.routes()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	if ready != nil {
		ready <- ln.Addr().String()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case err := <-serveErr:
		return err
	}

	// Graceful drain: stop admitting (readyz flips to 503, Submit
	// answers 503), finish in-flight work within the budget, cancel
	// stragglers, flush the journal, then stop serving.
	s.draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), *drainBudget)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		httpSrv.Close()
		return err
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	return httpSrv.Shutdown(shutCtx)
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	for _, kind := range []jobs.Kind{jobs.KindArchive, jobs.KindRestore, jobs.KindRange,
		jobs.KindTable, jobs.KindListIndex, jobs.KindSalvage} {
		mux.HandleFunc("POST /v1/"+string(kind), s.handleSubmit(kind))
	}
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/recovered", s.handleRecovered)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	return mux
}

// submitBody is the JSON request body shared by the submission endpoints;
// each endpoint reads the fields its kind needs.
type submitBody struct {
	Name      string `json:"name"`
	Input     string `json:"input,omitempty"`  // archive: file to read
	Output    string `json:"output,omitempty"` // restore/salvage: file to write (empty: buffer in memory)
	Table     string `json:"table,omitempty"`
	Off       int    `json:"off,omitempty"`
	Length    int    `json:"length,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Indexed   bool   `json:"indexed,omitempty"` // archive: build catalog + selective-restore index
}

func decodeBody(w http.ResponseWriter, r *http.Request, b *submitBody) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(b); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	if b.Name == "" {
		http.Error(w, "missing archive name", http.StatusBadRequest)
		return false
	}
	return true
}

// handleSubmit serves one submission endpoint, the same path for every
// kind: decode the body, build the kind's request (400 for a missing or
// out-of-range field, 404 for an unknown archive name), submit it, and
// answer 202 with the job id — after recording an archive job under its
// name, so the name resolves the moment the job is reported succeeded.
func (s *server) handleSubmit(kind jobs.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var b submitBody
		if !decodeBody(w, r, &b) {
			return
		}
		req, ok := s.request(w, kind, b)
		if !ok {
			return
		}
		id, ok := s.submit(w, req)
		if !ok {
			return
		}
		if kind == jobs.KindArchive {
			s.mu.Lock()
			s.names[b.Name] = append(s.names[b.Name], id)
			s.mu.Unlock()
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]int64{"job": id})
	}
}

// request builds the job a submission asks for. Archive jobs read their
// input file; every other kind runs on the named archive. Fields are
// checked before the name is looked up: a negative timeout_ms would mean
// no deadline and one past the largest Duration would wrap around, and a
// negative range off would only fail inside the job.
func (s *server) request(w http.ResponseWriter, kind jobs.Kind, b submitBody) (jobs.Request, bool) {
	req := jobs.Request{Kind: kind}
	switch {
	case b.TimeoutMS < 0 || b.TimeoutMS > math.MaxInt64/int64(time.Millisecond):
		http.Error(w, "timeout_ms out of range", http.StatusBadRequest)
		return req, false
	case kind == jobs.KindRange && b.Off < 0:
		http.Error(w, "off must not be negative", http.StatusBadRequest)
		return req, false
	case kind == jobs.KindArchive && b.Input == "":
		http.Error(w, "missing input path", http.StatusBadRequest)
		return req, false
	case kind == jobs.KindRange && b.Length <= 0:
		http.Error(w, "length must be positive", http.StatusBadRequest)
		return req, false
	case kind == jobs.KindTable && b.Table == "":
		http.Error(w, "missing table name", http.StatusBadRequest)
		return req, false
	}
	req.Timeout = time.Duration(b.TimeoutMS) * time.Millisecond
	if kind == jobs.KindArchive {
		req.ArchiveOptions = s.opts
		if b.Indexed {
			req.ArchiveOptions.Catalog = true
			req.ArchiveOptions.Index = true
		}
		req.Source = s.source(b.Input)
		return req, true
	}

	arch, ok := s.lookup(w, b.Name)
	if !ok {
		return req, false
	}
	req.Volume, req.BootstrapText = arch.Volume, arch.BootstrapText
	req.RestoreOptions = core.RestoreOptions{Mode: core.RestoreNative}
	req.Off, req.Length, req.Table = b.Off, b.Length, b.Table
	if kind == jobs.KindRestore || kind == jobs.KindSalvage {
		req.Sink = fileSink(b.Output)
	}
	if kind == jobs.KindSalvage {
		for i := 0; i < arch.Volume.Sheets(); i++ {
			m, _ := arch.Volume.Sheet(i) // i is in range, so Sheet cannot fail
			req.Sheets = append(req.Sheets, m)
		}
		req.SalvageOptions = core.SalvageOptions{Mode: core.RestoreNative}
	}
	return req, true
}

// submit hands req to the manager, mapping its admission errors onto HTTP
// status codes: queue full -> 429, draining -> 503, bad request -> 400.
// It reports false once it has answered with an error.
func (s *server) submit(w http.ResponseWriter, req jobs.Request) (int64, bool) {
	id, err := s.mgr.Submit(req)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		http.Error(w, "queue full, retry later", http.StatusTooManyRequests)
	case errors.Is(err, jobs.ErrDraining):
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		return id, true
	}
	return 0, false
}

// lookup resolves an archive name to the volume of its newest archive job
// that succeeded.
func (s *server) lookup(w http.ResponseWriter, name string) (*core.Archived, bool) {
	s.mu.Lock()
	ids := s.names[name]
	s.mu.Unlock()
	for i := len(ids) - 1; i >= 0; i-- {
		if snap, err := s.mgr.Job(ids[i]); err != nil || snap.State != jobs.StateSucceeded {
			continue
		}
		// Terminal, so Wait returns at once.
		if res, _, err := s.mgr.Wait(context.Background(), ids[i]); err == nil && res.Archived != nil {
			return res.Archived, true
		}
	}
	http.Error(w, fmt.Sprintf("no archive named %q", name), http.StatusNotFound)
	return nil, false
}

// source opens the archive input afresh for every attempt; the manager
// closes it when the attempt ends. The chaos wrappers hide the file's
// Close, so a wrapped source pairs them with the file itself.
func (s *server) source(path string) func(context.Context) (io.Reader, error) {
	// One fault budget per job, shared across retry attempts, so the
	// chaos flags model a source that recovers rather than one that
	// fails forever.
	var flaky *faultinject.Flaky
	if s.chaosFailures > 0 {
		flaky = faultinject.NewFlaky(s.chaosFailures)
	}
	slow := s.chaosSlow
	return func(context.Context) (io.Reader, error) {
		f, err := os.Open(path)
		if err != nil || (slow <= 0 && flaky == nil) {
			return f, err
		}
		var rd io.Reader = f
		if slow > 0 {
			rd = faultinject.SlowReader(rd, slow)
		}
		if flaky != nil {
			rd = flaky.Reader(rd)
		}
		return struct {
			io.Reader
			io.Closer
		}{rd, f}, nil
	}
}

// fileSink creates the output file afresh for every attempt (truncating,
// so each retry starts clean); the manager syncs it before the job
// succeeds and closes it when the attempt ends. An empty path buffers the
// output in memory instead.
func fileSink(path string) func(context.Context) (io.Writer, error) {
	if path == "" {
		return nil
	}
	return func(context.Context) (io.Writer, error) {
		return os.Create(path)
	}
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	json.NewEncoder(w).Encode(s.mgr.Jobs())
}

func (s *server) handleRecovered(w http.ResponseWriter, r *http.Request) {
	json.NewEncoder(w).Encode(s.mgr.Recovered())
}

func jobID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return 0, false
	}
	return id, true
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	snap, err := s.mgr.Job(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	json.NewEncoder(w).Encode(snap)
}

// handleResult serves a finished job's in-memory output bytes. Jobs that
// wrote to an output file return 204: the bytes are on disk.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	snap, err := s.mgr.Job(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if !snap.State.Terminal() {
		http.Error(w, fmt.Sprintf("job is %s", snap.State), http.StatusConflict)
		return
	}
	res, snap, err := s.mgr.Wait(r.Context(), id) // terminal: returns immediately
	if err != nil {
		http.Error(w, fmt.Sprintf("job %s: %s", snap.State, snap.Err), http.StatusConflict)
		return
	}
	switch {
	case res.Index != nil:
		json.NewEncoder(w).Encode(res.Index)
	case res.Data != nil:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(res.Data)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	if err := s.mgr.Cancel(id); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}
