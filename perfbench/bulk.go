package main

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"time"

	"microlonys"
	"microlonys/media"
)

// Bulk workload parameters.
const (
	bulkScale      = 0.0008 // TPC-H scale factor: a ~1 MB SQL dump
	bulkDamage     = 0.3    // share of sheets that lose one or two frames
	bulkMinRounds  = 3
	bulkPhasesEach = 3 // archive, restore, salvage: each carries the dump once
)

type bulkInputs struct {
	arch    *microlonys.Archived
	scanned *media.Volume // damaged, read through the scanner model
	pre     *media.Volume // its pre-scanned copy
}

// runBulk times ArchiveReader, RestoreTo and SalvageTo of one dump in
// rounds until the time is up.
func runBulk(seed int64, seconds float64, trace bool) (*outcome, error) {
	dump := tpchDump(bulkScale, seed)
	opts := archiveOptions()
	in, setup, err := timedSetup(func() (bulkInputs, error) {
		arch, err := microlonys.ArchiveReader(bytes.NewReader(dump), opts)
		if err != nil {
			return bulkInputs{}, err
		}
		scanned := arch.Volume.Clone()
		if err := damage(scanned, rand.New(rand.NewSource(seed)), bulkDamage); err != nil {
			return bulkInputs{}, err
		}
		pre, err := prescan(scanned)
		return bulkInputs{arch, scanned, pre}, err
	})
	if err != nil {
		return nil, err
	}
	want, err := guard(in.scanned, in.pre, in.arch.BootstrapText, dump)
	if err != nil {
		return nil, err
	}
	bt := in.arch.BootstrapText
	mb := float64(len(dump)) / bytesPerMB
	if !trace {
		in.arch, in.scanned = lean(in.arch), nil
	}

	o := &outcome{
		e2e: map[string]float64{"setup_s": setup}, traced: map[string]float64{}, layers: map[string]float64{},
		params: map[string]any{
			"tpch_scale": bulkScale, "dump_bytes": len(dump), "damage_share": bulkDamage,
			"frames": in.arch.Manifest.TotalFrames, "sheets": in.arch.Manifest.Sheets,
			"sheet_frames": opts.SheetFrames, "frames_failed": want.FramesFailed,
			"groups_recovered": want.GroupsRecovered,
		},
	}
	type round struct{ archive, restore, salvage, total float64 }
	var plain, traced []round
	var readBusy, writeBusy []float64
	var salv *microlonys.SalvageReport
	rng := rand.New(rand.NewSource(seed ^ 0x5a17))
	out := bytes.NewBuffer(make([]byte, 0, len(dump)))
	mem := startMemPeak()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < bulkMinRounds || time.Now().Before(deadline); i++ {
		tracing := trace && i%2 == 1
		var r round
		roundStart := time.Now()

		var src io.Reader = bytes.NewReader(dump)
		tsrc := &timedReader{r: src}
		if tracing {
			src = tsrc
		}
		t0 := time.Now()
		arch, err := microlonys.ArchiveReader(src, opts)
		r.archive = ms(time.Since(t0))
		o.attempted++
		switch {
		case err != nil:
			o.fail("archive: %v", err)
		case arch.Manifest != in.arch.Manifest:
			o.fail("archive: manifest %+v differs from the set-up archive %+v", arch.Manifest, in.arch.Manifest)
		}

		out.Reset()
		var sink io.Writer = out
		tsink := &timedWriter{w: out}
		if tracing {
			sink = tsink
		}
		t0 = time.Now()
		st, err := microlonys.RestoreTo(sink, in.pre, bt, microlonys.RestoreOptions{})
		r.restore = ms(time.Since(t0))
		o.attempted++
		switch {
		case err != nil:
			o.fail("restore: %v", err)
		case !bytes.Equal(out.Bytes(), dump):
			o.fail("restore: output differs from the dump")
		case st.FramesFailed != want.FramesFailed || st.BytesCorrected != want.BytesCorrected ||
			st.GroupsRecovered != want.GroupsRecovered:
			o.fail("restore: stats %+v differ from the set-up restore", *st)
		}

		bag, err := salvageBag(in.pre, rng)
		if err != nil {
			return nil, err
		}
		out.Reset()
		t0 = time.Now()
		rep, err := microlonys.SalvageTo(out, bag, microlonys.SalvageOptions{})
		r.salvage = ms(time.Since(t0))
		o.attempted++
		switch {
		case err != nil:
			o.fail("salvage: %v", err)
		case !bytes.Equal(out.Bytes(), dump) || !rep.Complete:
			o.fail("salvage: output differs from the dump (complete=%v)", rep.Complete)
		default:
			salv = rep
		}

		r.total = ms(time.Since(roundStart))
		if tracing {
			traced = append(traced, r)
			readBusy = append(readBusy, ms(tsrc.busy))
			writeBusy = append(writeBusy, ms(tsink.busy))
		} else {
			plain = append(plain, r)
		}
	}

	o.e2e["mem_peak_mb"] = mem.MB()

	figures := func(rs []round, into map[string]float64) map[string]float64 {
		var a, re, s, t []float64
		for _, r := range rs {
			a, re, s, t = append(a, r.archive), append(re, r.restore), append(s, r.salvage), append(t, r.total)
		}
		into["p50_ms"] = percentile(t, 50)
		into["p90_ms"] = percentile(t, 90)
		into["mb_s"] = bulkPhasesEach * mb / (into["p50_ms"] / 1e3)
		into["archive_ms"] = percentile(a, 50)
		into["restore_ms"] = percentile(re, 50)
		into["salvage_ms"] = percentile(s, 50)
		return into
	}
	figures(plain, o.e2e)
	o.e2e["frames_per_mb"] = float64(in.arch.Manifest.TotalFrames) / mb
	o.samples = len(plain)
	o.detail = map[string]any{
		"archive_mb_s": mb / (o.e2e["archive_ms"] / 1e3),
		"restore_mb_s": mb / (o.e2e["restore_ms"] / 1e3),
		"salvage_mb_s": mb / (o.e2e["salvage_ms"] / 1e3),
		"fail_ratio":   float64(o.failed) / float64(o.attempted),
		"rounds":       len(plain) + len(traced),
	}
	if !trace {
		return o, nil
	}

	figures(traced, o.traced)
	l := o.layers
	l["core.archive_ms"] = o.traced["archive_ms"]
	l["core.restore_ms"] = o.traced["restore_ms"]
	l["core.salvage_ms"] = o.traced["salvage_ms"]
	l["source.read_ms"] = percentile(readBusy, 50)
	l["sink.write_ms"] = percentile(writeBusy, 50)
	l["core.groups_recovered"] = float64(want.GroupsRecovered)
	if salv != nil {
		l["salvage.sheets_identified"] = float64(len(salv.SheetsIdentified))
		l["salvage.catalog_frames"] = float64(salv.CatalogFrames)
		l["salvage.duplicates"] = float64(salv.SheetsDuplicate)
	}
	busy, err := replay{
		data: dump, manifest: in.arch.Manifest, opts: opts,
		scanned: in.scanned, pre: in.pre, stats: want,
	}.run(l)
	if err != nil {
		return nil, err
	}
	l["core.restore_other_ms"] = l["core.restore_ms"] -
		(ms(busy)+l["sink.write_ms"])/float64(runtime.GOMAXPROCS(0))
	return o, nil
}
