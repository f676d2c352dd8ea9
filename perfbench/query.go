package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"microlonys"
	"microlonys/internal/sqldump"
	"microlonys/media"
)

// Query workload parameters.
const (
	queryScale     = 0.0016 // TPC-H scale factor: a ~2 MB SQL dump, ~35 sheets
	queryMinLen    = 4 << 10
	queryMaxLen    = 64 << 10 // also the largest table a table query picks
	queryMinCount  = 10
	queryReplayMax = 6 // sheets the layer replay decodes
)

// queryOp is one query of the seeded sequence: a table by name, or a
// byte range.
type queryOp struct {
	table    string
	off, len int
}

// querySet is an indexed, pre-scanned volume and the extents its queries
// may ask for.
type querySet struct {
	dump    []byte
	arch    *microlonys.Archived
	pre     *media.Volume
	scanned *media.Volume
	tables  []sqldump.Section // tables no larger than queryMaxLen
	stats   *microlonys.RestoreStats
}

// newQuerySet finds the dump's tables a query may ask for.
func newQuerySet(dump []byte) (*querySet, error) {
	secs, err := sqldump.Sections(dump)
	if err != nil {
		return nil, err
	}
	qs := &querySet{dump: dump}
	for _, s := range secs {
		if s.Len > 0 && s.Len <= queryMaxLen {
			qs.tables = append(qs.tables, s)
		}
	}
	if len(qs.tables) == 0 {
		return nil, fmt.Errorf("query: no table of at most %d B", queryMaxLen)
	}
	return qs, nil
}

// buildQuerySet archives the dump with an index and pre-scans the volume.
func buildQuerySet(dump []byte) (*querySet, error) {
	qs, err := newQuerySet(dump)
	if err != nil {
		return nil, err
	}
	if qs.arch, err = microlonys.ArchiveReader(bytes.NewReader(dump), archiveOptions()); err != nil {
		return nil, err
	}
	qs.scanned = qs.arch.Volume
	qs.pre, err = prescan(qs.scanned)
	return qs, err
}

// verify checks pre-scan equivalence and that the index answers a table
// query without falling back to a full restore.
func (qs *querySet) verify() error {
	var err error
	if qs.stats, err = guard(qs.scanned, qs.pre, qs.arch.BootstrapText, qs.dump); err != nil {
		return err
	}
	op := queryOp{table: qs.tables[0].Table}
	got, st, err := qs.run(op)
	if err == nil {
		err = qs.check(op, got, st)
	}
	if err != nil {
		return fmt.Errorf("query: set-up probe: %w", err)
	}
	return nil
}

// lean keeps only the pre-scanned volume.
func (qs *querySet) lean() {
	qs.arch, qs.scanned = lean(qs.arch), nil
}

// next draws one query: a table of at most maxLen bytes, or a range of
// queryMinLen..maxLen bytes at a uniform offset.
func (qs *querySet) next(rng *rand.Rand, table bool, maxLen int) queryOp {
	if table {
		var fit []string
		for _, t := range qs.tables {
			if t.Len <= maxLen {
				fit = append(fit, t.Table)
			}
		}
		return queryOp{table: fit[rng.Intn(len(fit))]}
	}
	n := queryMinLen + rng.Intn(maxLen-queryMinLen+1)
	return queryOp{off: rng.Intn(len(qs.dump) - n + 1), len: n}
}

// sequence is the seeded query stream: pairs of one table and one range
// query in seeded order, so the mix is half and half at any length.
func (qs *querySet) sequence(seed int64) func() queryOp {
	rng := rand.New(rand.NewSource(seed ^ 0x9e37))
	var pending []queryOp
	return func() queryOp {
		if len(pending) == 0 {
			first := rng.Intn(2) == 0
			pending = []queryOp{qs.next(rng, first, queryMaxLen), qs.next(rng, !first, queryMaxLen)}
		}
		op := pending[0]
		pending = pending[1:]
		return op
	}
}

// want is the byte extent a query must return.
func (qs *querySet) want(op queryOp) []byte {
	if op.table != "" {
		for _, t := range qs.tables {
			if t.Table == op.table {
				return qs.dump[t.Off : t.Off+t.Len]
			}
		}
	}
	return qs.dump[op.off : op.off+op.len]
}

// check verifies a query's output and its frame accounting.
func (qs *querySet) check(op queryOp, got []byte, st *microlonys.RestoreStats) error {
	total := qs.pre.FrameCount()
	switch {
	case !bytes.Equal(got, qs.want(op)):
		return fmt.Errorf("query %+v: output differs from the dump extent", op)
	case st.IndexFallbacks != 0:
		return fmt.Errorf("query %+v: fell back to a full restore", op)
	case st.FramesScanned+st.FramesSkipped != total:
		return fmt.Errorf("query %+v: %d scanned + %d skipped frames, volume has %d",
			op, st.FramesScanned, st.FramesSkipped, total)
	}
	return nil
}

func (qs *querySet) run(op queryOp) ([]byte, *microlonys.RestoreStats, error) {
	bt, ro := qs.arch.BootstrapText, microlonys.RestoreOptions{}
	if op.table != "" {
		return microlonys.RestoreTable(qs.pre, bt, op.table, ro)
	}
	return microlonys.RestoreRange(qs.pre, bt, op.off, op.len, ro)
}

// runQuery is one closed-loop client: each query is sent when the
// previous one has returned.
func runQuery(seed int64, seconds float64, trace bool) (*outcome, error) {
	return runQueryN(seed, seconds, trace, 0)
}

// runQueryN stops after limit queries when limit > 0, whatever the time.
func runQueryN(seed int64, seconds float64, trace bool, limit int) (*outcome, error) {
	dump := tpchDump(queryScale, seed)
	qs, setup, err := timedSetup(func() (*querySet, error) { return buildQuerySet(dump) })
	if err != nil {
		return nil, err
	}
	if err := qs.verify(); err != nil {
		return nil, err
	}
	if !trace {
		qs.lean()
	}
	m := qs.arch.Manifest
	mb := float64(m.RawLen) / bytesPerMB
	o := &outcome{
		e2e:    map[string]float64{"setup_s": setup, "frames_per_mb": float64(m.TotalFrames) / mb},
		traced: map[string]float64{}, layers: map[string]float64{},
		params: map[string]any{
			"tpch_scale": queryScale, "dump_bytes": len(qs.dump), "frames": m.TotalFrames,
			"sheets": m.Sheets, "range_bytes": []int{queryMinLen, queryMaxLen}, "clients": 1,
		},
	}
	type sample struct{ ms, bytes float64 }
	var plain, traced []sample
	var scanned, touched, groups, index, fallbacks, returned []float64
	next := qs.sequence(seed)
	mem := startMemPeak()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if limit > 0 && i >= limit || limit <= 0 && i >= queryMinCount && !time.Now().Before(deadline) {
			break
		}
		op := next()
		t0 := time.Now()
		got, st, err := qs.run(op)
		s := sample{ms: ms(time.Since(t0)), bytes: float64(len(got))}
		o.attempted++
		if err == nil {
			err = qs.check(op, got, st)
		}
		if err != nil {
			o.fail("%v", err)
			continue
		}
		if trace && i%2 == 1 {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
		scanned = append(scanned, float64(st.FramesScanned))
		touched = append(touched, 100*float64(st.FramesScanned)/float64(qs.pre.FrameCount()))
		groups = append(groups, float64(st.GroupsDecoded))
		index = append(index, float64(st.IndexFrames))
		fallbacks = append(fallbacks, float64(st.IndexFallbacks))
		returned = append(returned, s.bytes)
	}

	o.e2e["mem_peak_mb"] = mem.MB()

	figures := func(ss []sample, into map[string]float64) {
		var lat, b []float64
		for _, s := range ss {
			lat, b = append(lat, s.ms), append(b, s.bytes)
		}
		into["p50_ms"] = percentile(lat, 50)
		into["p90_ms"] = percentile(lat, 90)
		if t := sum(lat); t > 0 {
			into["mb_s"] = sum(b) / bytesPerMB / (t / 1e3)
		}
	}
	figures(plain, o.e2e)
	o.samples = len(plain)
	o.detail = map[string]any{
		"query_p50_ms": o.e2e["p50_ms"], "query_p90_ms": o.e2e["p90_ms"],
		"queries":    len(plain) + len(traced),
		"fail_ratio": float64(o.failed) / float64(o.attempted),
	}
	n := float64(len(scanned))
	o.layers["core.frames_scanned_per_query"] = sum(scanned) / n
	o.layers["core.frames_touched_pct"] = sum(touched) / n
	o.layers["core.groups_decoded_per_query"] = sum(groups) / n
	o.layers["archindex.index_frames_per_query"] = sum(index) / n
	o.layers["core.index_fallbacks"] = sum(fallbacks)
	o.layers["query.useful_byte_ratio"] = sum(returned) / (sum(scanned) * float64(qs.arch.Options.Profile.FrameCapacity()))
	if !trace {
		return o, nil
	}
	figures(traced, o.traced)
	_, err = replay{
		data: qs.dump, manifest: m, opts: qs.arch.Options,
		scanned: qs.scanned, pre: qs.pre, sheets: queryReplayMax,
	}.run(o.layers)
	return o, err
}
