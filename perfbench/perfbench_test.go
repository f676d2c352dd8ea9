package main

import (
	"reflect"
	"testing"
	"time"
)

// Counts the program makes must repeat exactly for a seed: the benchmark's
// inputs, damage and query stream are functions of the seed alone.
func TestBulkCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and restores a 1 MB archive twice")
	}
	a, b := mustRun(t, runBulk), mustRun(t, runBulk)
	sameCounts(t, a, b, "mocoder.frames_failed", "mocoder.bytes_corrected", "core.groups_recovered",
		"salvage.sheets_identified", "salvage.catalog_frames", "salvage.duplicates", "dbcoder.ratio")
	if a.e2e["frames_per_mb"] != b.e2e["frames_per_mb"] || !reflect.DeepEqual(a.params, b.params) {
		t.Errorf("set-up differs between runs: %v vs %v", a.params, b.params)
	}
	if a.layers["core.groups_recovered"] == 0 {
		t.Error("seeded damage left every group intact; outer recovery is not exercised")
	}
}

func TestQueryCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2 MB indexed volume twice")
	}
	run := func(seed int64, seconds float64, trace bool) (*outcome, error) {
		return runQueryN(seed, seconds, trace, 6)
	}
	a, b := mustRun(t, run), mustRun(t, run)
	sameCounts(t, a, b, "core.frames_scanned_per_query", "core.frames_touched_pct",
		"core.groups_decoded_per_query", "archindex.index_frames_per_query", "core.index_fallbacks",
		"query.useful_byte_ratio", "mocoder.bytes_corrected", "mocoder.frames_failed")
	if a.attempted != 6 {
		t.Errorf("ran %d queries, want 6", a.attempted)
	}
}

// A different seed must draw a different query stream and service schedule;
// the same seed the same ones.
func TestSeedChangesSequences(t *testing.T) {
	qs, err := newQuerySet(tpchDump(serviceScale, 1))
	if err != nil {
		t.Fatal(err)
	}
	ops := func(seed int64) []queryOp {
		next := qs.sequence(seed)
		var out []queryOp
		for i := 0; i < 20; i++ {
			out = append(out, next())
		}
		return out
	}
	if !reflect.DeepEqual(ops(1), ops(1)) {
		t.Error("query stream differs for the same seed")
	}
	if reflect.DeepEqual(ops(1), ops(2)) {
		t.Error("query stream is the same for seeds 1 and 2")
	}
	plan := func(seed int64) []serviceJob { return schedule(seed, 40, 10*time.Second, []*querySet{qs, qs}) }
	if !reflect.DeepEqual(plan(1), plan(1)) {
		t.Error("service schedule differs for the same seed")
	}
	if reflect.DeepEqual(plan(1), plan(2)) {
		t.Error("service schedule is the same for seeds 1 and 2")
	}
	kinds := map[string]int{}
	for _, j := range plan(3) {
		kinds[j.kind]++
	}
	for _, m := range serviceMix {
		if kinds[m.kind] != m.weight {
			t.Errorf("%d %s jobs in 40, want %d", kinds[m.kind], m.kind, m.weight)
		}
	}
}

func mustRun(t *testing.T, run func(int64, float64, bool) (*outcome, error)) *outcome {
	t.Helper()
	o, err := run(7, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 || len(o.wrong) != 0 {
		t.Fatalf("%d of %d operations failed: %v", o.failed, o.attempted, o.wrong)
	}
	return o
}

func sameCounts(t *testing.T, a, b *outcome, names ...string) {
	t.Helper()
	for _, k := range names {
		va, oka := a.layers[k]
		vb, okb := b.layers[k]
		if !oka || !okb || va != vb {
			t.Errorf("%s: %v then %v", k, va, vb)
		}
	}
}
