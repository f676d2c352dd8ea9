package main

// Handler-level tests of the submission endpoints, served in-process
// (no signals): every restore-family endpoint answers 202 and a correct
// result on an indexed archive, 400 for a missing field and 404 for an
// unknown archive name.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"microlonys/internal/archindex"
	"microlonys/internal/core"
	"microlonys/internal/jobs"
	"microlonys/internal/sqldump"
	"microlonys/media"
)

// testServer serves the daemon's routes over a fresh manager on the tiny
// profile.
func testServer(t *testing.T) string {
	t.Helper()
	mgr, err := jobs.New(jobs.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := &server{mgr: mgr, opts: core.DefaultOptions(media.Tiny()), names: make(map[string][]int64)}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		mgr.Drain(context.Background())
	})
	return ts.URL
}

// archiveDump archives a small two-table SQL dump as an indexed archive
// named "db" and returns the dump.
func archiveDump(t *testing.T, base string) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("COPY region (r_regionkey, r_name) FROM stdin;\n")
	for i, r := range []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"} {
		fmt.Fprintf(&b, "%d\t%s\n", i, r)
	}
	b.WriteString("\\.\n\nCOPY orders (o_orderkey, o_comment) FROM stdin;\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "%d\tcrate %d of the nightly shipment\n", i, i)
	}
	b.WriteString("\\.\n")
	data := b.Bytes()
	input := filepath.Join(t.TempDir(), "dump.sql")
	if err := os.WriteFile(input, data, 0o644); err != nil {
		t.Fatal(err)
	}
	id := submitJob(t, base+"/v1/archive", map[string]any{"name": "db", "input": input, "indexed": true})
	if snap := waitJob(t, base, id); snap.State != jobs.StateSucceeded {
		t.Fatalf("archive job: %s (%s)", snap.State, snap.Err)
	}
	return data
}

// result submits a job, waits for it to succeed and returns its result.
func result(t *testing.T, base, endpoint string, body map[string]any) (int, []byte) {
	t.Helper()
	id := submitJob(t, base+endpoint, body)
	if snap := waitJob(t, base, id); snap.State != jobs.StateSucceeded {
		t.Fatalf("%s job: %s (%s)", endpoint, snap.State, snap.Err)
	}
	return getBody(t, fmt.Sprintf("%s/v1/jobs/%d/result", base, id))
}

func TestSubmitEndpoints(t *testing.T) {
	base := testServer(t)
	data := archiveDump(t, base)
	secs, err := sqldump.Sections(data)
	if err != nil || len(secs) != 2 {
		t.Fatalf("dump sections: %v %+v", err, secs)
	}
	table := secs[1]

	if code, got := result(t, base, "/v1/table", map[string]any{"name": "db", "table": table.Table}); code != http.StatusOK ||
		!bytes.Equal(got, data[table.Off:table.Off+table.Len]) {
		t.Fatalf("table %q: %d, %d bytes (want %d)", table.Table, code, len(got), table.Len)
	}

	code, got := result(t, base, "/v1/listindex", map[string]any{"name": "db"})
	var x archindex.Index
	if code != http.StatusOK || json.Unmarshal(got, &x) != nil || x.RawLen != len(data) {
		t.Fatalf("listindex: %d %s", code, got)
	}
	if _, ok := x.Lookup(table.Table); !ok {
		t.Fatalf("listindex misses table %q: %+v", table.Table, x.Tables())
	}

	// An output file is synced and closed before the job succeeds, so it
	// is whole the moment the job says so.
	out := filepath.Join(t.TempDir(), "salvaged.sql")
	if code, _ := result(t, base, "/v1/salvage", map[string]any{"name": "db", "output": out}); code != http.StatusNoContent {
		t.Fatalf("salvage to file: %d, want 204", code)
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("salvaged file: %v, %d bytes (want %d)", err, len(got), len(data))
	}
}

func TestSubmitErrors(t *testing.T) {
	base := testServer(t)

	for _, tc := range []struct {
		endpoint string
		body     map[string]any
		want     int
	}{
		{"/v1/archive", map[string]any{"input": "x.sql"}, http.StatusBadRequest},
		{"/v1/archive", map[string]any{"name": "db"}, http.StatusBadRequest},
		{"/v1/restore", map[string]any{}, http.StatusBadRequest},
		{"/v1/range", map[string]any{"name": "db", "off": 10}, http.StatusBadRequest},
		{"/v1/table", map[string]any{"name": "db"}, http.StatusBadRequest},
		{"/v1/listindex", map[string]any{}, http.StatusBadRequest},
		{"/v1/salvage", map[string]any{}, http.StatusBadRequest},

		{"/v1/restore", map[string]any{"name": "ghost"}, http.StatusNotFound},
		{"/v1/range", map[string]any{"name": "ghost", "length": 10}, http.StatusNotFound},
		{"/v1/table", map[string]any{"name": "ghost", "table": "nation"}, http.StatusNotFound},
		{"/v1/listindex", map[string]any{"name": "ghost"}, http.StatusNotFound},
		{"/v1/salvage", map[string]any{"name": "ghost"}, http.StatusNotFound},
	} {
		if code, out := postJSON(t, base+tc.endpoint, tc.body); code != tc.want {
			t.Errorf("POST %s %v: %d %s, want %d", tc.endpoint, tc.body, code, out, tc.want)
		}
	}
}

// TestSourceCloses: a chaos-wrapped archive source still hands the
// manager the file's Close.
func TestSourceCloses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "in.sql")
	if err := os.WriteFile(path, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := &server{chaosFailures: 1, chaosSlow: 1}
	r, err := s.source(path)(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c, ok := r.(io.Closer)
	if !ok {
		t.Fatal("wrapped source hides the file's Close")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err == nil {
		t.Fatal("Close did not reach the file")
	}
}
