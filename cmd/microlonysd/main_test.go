package main

// The chaos smoke: boot the daemon in-process on a random port with
// fault injection on every archive source, drive the HTTP API end to
// end — archive (with retries), restore, range query, a burst of
// concurrent jobs — then deliver a real SIGTERM and assert the drain
// finishes every job, the process exits cleanly, and the journal
// replays the whole run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"microlonys/internal/jobs"
)

func smokePayload() []byte {
	var b bytes.Buffer
	for i := 0; b.Len() < 16*1024; i++ {
		fmt.Fprintf(&b, "INSERT INTO lineitem VALUES (%d, 155190, 7706, 17, 21168.23, '1996-03-13');\n", i)
	}
	return b.Bytes()
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func submitJob(t *testing.T, url string, body any) int64 {
	t.Helper()
	code, out := postJSON(t, url, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST %s: %d %s", url, code, out)
	}
	var resp struct {
		Job int64 `json:"job"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Job
}

func waitJob(t *testing.T, base string, id int64) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		code, out := getBody(t, fmt.Sprintf("%s/v1/jobs/%d", base, id))
		if code != http.StatusOK {
			t.Fatalf("GET job %d: %d %s", id, code, out)
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal(out, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.State.Terminal() {
			return snap
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %d never reached a terminal state", id)
	return jobs.Snapshot{}
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

// checkNoFDLeak fails the test if the process holds more descriptors than
// before (a negative before means the count is unavailable). Idle client
// connections are closed first; a closed socket's descriptor is released
// once its reader wakes, so the count gets a few seconds to settle.
func checkNoFDLeak(t *testing.T, before int, when string) {
	t.Helper()
	if before < 0 {
		return
	}
	http.DefaultClient.CloseIdleConnections()
	n := openFDs()
	for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); n = openFDs() {
		time.Sleep(20 * time.Millisecond)
	}
	if n > before {
		t.Fatalf("%s: %d open descriptors, %d before the first boot", when, n, before)
	}
}

func TestChaosSmoke(t *testing.T) {
	// The descriptor baseline: the throwaway listing makes sure Go's
	// network poller has its descriptors open before the count.
	openFDs()
	fdsBefore := openFDs()

	dir := t.TempDir()
	payload := smokePayload()
	inputPath := filepath.Join(dir, "payload.sql")
	if err := os.WriteFile(inputPath, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	journalPath := filepath.Join(dir, "jobs.journal")

	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{
			"-addr", "127.0.0.1:0",
			"-workers", "3",
			"-queue", "16",
			"-retries", "3",
			"-journal", journalPath,
			"-drain", "60s",
			"-profile", "tiny",
			"-chaos-source-failures", "1",
			"-chaos-slow-source", "1ms",
		}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-runErr:
		t.Fatalf("daemon did not start: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not start in time")
	}

	if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code, _ := getBody(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}

	// Archive under injected faults: the flaky source fails once, the
	// retry loop must carry the job to success anyway.
	archiveID := submitJob(t, base+"/v1/archive", map[string]any{
		"name": "demo", "input": inputPath,
	})
	snap := waitJob(t, base, archiveID)
	if snap.State != jobs.StateSucceeded {
		t.Fatalf("archive job: %s (%s)", snap.State, snap.Err)
	}
	if snap.Retries < 1 {
		t.Fatalf("archive job retried %d times; the chaos flag injects 1 failure", snap.Retries)
	}

	// Restore it back and compare bytes end to end.
	restoreID := submitJob(t, base+"/v1/restore", map[string]any{"name": "demo"})
	if snap := waitJob(t, base, restoreID); snap.State != jobs.StateSucceeded {
		t.Fatalf("restore job: %s (%s)", snap.State, snap.Err)
	}
	code, got := getBody(t, fmt.Sprintf("%s/v1/jobs/%d/result", base, restoreID))
	if code != http.StatusOK || !bytes.Equal(got, payload) {
		t.Fatalf("restore result: %d, %d bytes (want %d identical)", code, len(got), len(payload))
	}

	// The same restore into an output file: the daemon opens, syncs and
	// closes the file sink.
	outputPath := filepath.Join(dir, "restored.sql")
	fileID := submitJob(t, base+"/v1/restore", map[string]any{"name": "demo", "output": outputPath})
	if snap := waitJob(t, base, fileID); snap.State != jobs.StateSucceeded {
		t.Fatalf("file restore job: %s (%s)", snap.State, snap.Err)
	}
	if got, err := os.ReadFile(outputPath); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("file restore: %v, %d bytes (want %d identical)", err, len(got), len(payload))
	}

	// A range query (index-less volume: served via the full-restore
	// fallback) must return the exact slice.
	rangeID := submitJob(t, base+"/v1/range", map[string]any{
		"name": "demo", "off": 10, "length": 100,
	})
	if snap := waitJob(t, base, rangeID); snap.State != jobs.StateSucceeded {
		t.Fatalf("range job: %s (%s)", snap.State, snap.Err)
	}
	code, got = getBody(t, fmt.Sprintf("%s/v1/jobs/%d/result", base, rangeID))
	if code != http.StatusOK || !bytes.Equal(got, payload[10:110]) {
		t.Fatalf("range result: %d, %q", code, got)
	}

	// Error paths: unknown archive -> 404, malformed body -> 400,
	// unknown job -> 404.
	if code, _ := postJSON(t, base+"/v1/restore", map[string]any{"name": "ghost"}); code != http.StatusNotFound {
		t.Fatalf("restore of unknown archive: %d, want 404", code)
	}
	if resp, err := http.Post(base+"/v1/archive", "application/json", strings.NewReader("{not json")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed body: %d, want 400", resp.StatusCode)
		}
	}
	if code, _ := getBody(t, base+"/v1/jobs/99999"); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", code)
	}

	// A burst of concurrent jobs left in flight, then SIGTERM: the
	// drain must finish them all before the process exits.
	var burst []int64
	for i := 0; i < 6; i++ {
		burst = append(burst, submitJob(t, base+"/v1/restore", map[string]any{"name": "demo"}))
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("daemon did not drain and exit after SIGTERM")
	}
	checkNoFDLeak(t, fdsBefore, "after the first daemon exited")

	// The journal must replay the whole run: every job terminal, the
	// burst finished by the drain, none interrupted.
	replayed, err := jobs.ReplayJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	wantJobs := 4 + len(burst)
	if len(replayed) != wantJobs {
		t.Fatalf("journal replays %d jobs, want %d", len(replayed), wantJobs)
	}
	byID := map[int64]jobs.Snapshot{}
	for _, s := range replayed {
		if !s.State.Terminal() {
			t.Fatalf("journal job %d not terminal after drain: %s", s.ID, s.State)
		}
		byID[s.ID] = s
	}
	for _, id := range burst {
		if byID[id].State != jobs.StateSucceeded {
			t.Fatalf("burst job %d: %s, want succeeded by the drain", id, byID[id].State)
		}
	}

	// A restarted daemon replays the journal through /v1/recovered.
	ready2 := make(chan string, 1)
	runErr2 := make(chan error, 1)
	go func() {
		runErr2 <- run([]string{
			"-addr", "127.0.0.1:0", "-journal", journalPath, "-profile", "tiny",
		}, ready2)
	}()
	var base2 string
	select {
	case addr := <-ready2:
		base2 = "http://" + addr
	case err := <-runErr2:
		t.Fatalf("restarted daemon did not start: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("restarted daemon did not start in time")
	}
	code, out := getBody(t, base2+"/v1/recovered")
	if code != http.StatusOK {
		t.Fatalf("recovered: %d", code)
	}
	var recovered []jobs.Snapshot
	if err := json.Unmarshal(out, &recovered); err != nil {
		t.Fatal(err)
	}
	if len(recovered) != wantJobs {
		t.Fatalf("restart recovered %d jobs, want %d", len(recovered), wantJobs)
	}
	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	select {
	case err := <-runErr2:
		if err != nil {
			t.Fatalf("restarted daemon exited with error: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("restarted daemon did not exit after SIGTERM")
	}
	checkNoFDLeak(t, fdsBefore, "after the restarted daemon exited")
}
