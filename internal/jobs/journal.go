package jobs

// The journal is the manager's crash-safe memory: one JSON object per
// line, append-only, fsynced on terminal events (done, drain) and left
// buffered for the chatty ones (submit, start, retry). After a crash the
// tail may lose buffered lines but never corrupts — a torn final line is
// skipped on replay — so a restarted manager always reconstructs a
// consistent job table: every job it knows about, with any job lacking a
// terminal event reported as interrupted.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// event is one journal line.
type event struct {
	T        string    `json:"t"` // submit | start | retry | done | drain
	TS       time.Time `json:"ts"`
	ID       int64     `json:"id,omitempty"`
	Kind     Kind      `json:"kind,omitempty"`
	State    State     `json:"state,omitempty"`   // terminal state, on done
	Attempt  int       `json:"attempt,omitempty"` // on retry: the failed attempt; on done: attempts made
	Retries  int       `json:"retries,omitempty"`
	Err      string    `json:"err,omitempty"`
	Graceful bool      `json:"graceful,omitempty"` // on drain: all jobs finished in time
}

type journal struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: opening journal: %w", err)
	}
	return &journal{f: f, w: bufio.NewWriter(f)}, nil
}

// write appends one event; sync flushes and fsyncs so the event survives
// a crash — the durability contract for terminal events.
func (j *journal) write(ev event, sync bool) {
	line, err := json.Marshal(ev)
	if err != nil {
		return // events are plain structs; this cannot happen
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.w.Write(line)
	j.w.WriteByte('\n')
	if sync {
		j.w.Flush()
		j.f.Sync()
	}
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// ReplayJournal reads a journal file and reconstructs the job table it
// describes, in ID order. Jobs with no terminal "done" event are
// reported as StateInterrupted. A missing file is an empty journal; a
// torn or malformed line ends the replay at the last good line.
func ReplayJournal(path string) ([]Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()

	table := map[int64]*Snapshot{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			break // torn tail from a crash: stop at the last good line
		}
		switch ev.T {
		case "submit":
			table[ev.ID] = &Snapshot{
				ID: ev.ID, Kind: ev.Kind, State: StateInterrupted, SubmittedAt: ev.TS,
			}
		case "start":
			if s := table[ev.ID]; s != nil {
				s.StartedAt = ev.TS
			}
		case "retry":
			if s := table[ev.ID]; s != nil {
				s.Retries++
				s.Attempts = ev.Attempt
			}
		case "done":
			if s := table[ev.ID]; s != nil {
				// A done event from an older journal has no attempt
				// count; the retry events' figure stands then.
				if ev.Attempt > 0 {
					s.Attempts = ev.Attempt
				}
				s.State = ev.State
				s.Retries = ev.Retries
				s.Err = ev.Err
				s.FinishedAt = ev.TS
			}
		}
	}
	out := make([]Snapshot, 0, len(table))
	for _, s := range table {
		out = append(out, *s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out, sc.Err()
}
