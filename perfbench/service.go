package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"microlonys"
	"microlonys/internal/jobs"
	"microlonys/media"
)

// Service workload parameters. serviceRate is fixed, not derived from the
// host, so every run offers the same load: under half of what a 2-worker
// pool completes with this mix, with headroom for a slower host.
const (
	serviceScale      = 0.0002 // TPC-H scale factor: ~256 KB dumps
	serviceVolumes    = 2
	serviceRate       = 4.0  // jobs per second
	dynariscBytes     = 1024 // the future-user restore's input, archived uncompressed
	serviceQueueDepth = 256  // admission never refuses at this rate
	serviceMinJobs    = 20
)

// serviceMix is the job mix by count, in fortieths. Percentiles of a
// mixture move with every change of proportions near a boundary between
// kinds, so the mix puts both inside one kind: the median among the 80%
// short jobs (archive, range, table) and the 90th percentile a third of the
// way into the whole-volume restores (15%), above which only the salvage
// and the DynaRisc restore sit.
var serviceMix = []struct {
	kind   string
	weight int
}{
	{"archive", 4}, {"range", 14}, {"table", 14}, {"restore", 6}, {"salvage", 1}, {"dynarisc", 1},
}

// serviceJob is one arrival of the seeded open-loop schedule.
type serviceJob struct {
	kind string
	due  time.Duration // from the start of the run
	vol  int           // which volume the job archives, restores, queries or salvages
	q    queryOp
	bag  int64 // seed of the salvage bag's order
}

// schedule draws n arrivals as a Poisson process conditioned on n events
// in the window (sorted uniform times), with the mix's exact proportions
// in seeded order.
func schedule(seed int64, n int, window time.Duration, vols []*querySet) []serviceJob {
	rng := rand.New(rand.NewSource(seed ^ 0x3c6e))
	var pattern []string
	for _, m := range serviceMix {
		for i := 0; i < m.weight; i++ {
			pattern = append(pattern, m.kind)
		}
	}
	shuffle := func(k []string) { rng.Shuffle(len(k), func(i, j int) { k[i], k[j] = k[j], k[i] }) }
	// Whole patterns, then the remainder drawn from one shuffled pattern:
	// the kind counts are off the mix by at most one pattern's remainder.
	var kinds []string
	for len(kinds)+len(pattern) <= n {
		kinds = append(kinds, pattern...)
	}
	rest := append([]string(nil), pattern...)
	shuffle(rest)
	kinds = append(kinds, rest[:n-len(kinds)]...)
	shuffle(kinds)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	out := make([]serviceJob, n)
	for i, k := range kinds {
		j := serviceJob{kind: k, due: due[i], vol: rng.Intn(len(vols)), bag: rng.Int63()}
		if k == "range" || k == "table" {
			j.q = vols[j.vol].next(rng, k == "table", queryMaxLen)
		}
		out[i] = j
	}
	return out
}

// serviceInputs are the indexed volumes every job kind but DynaRisc works
// on, and the small uncompressed volume the DynaRisc restore reads.
type serviceInputs struct {
	vols     []*querySet
	tiny     []byte
	tinyArch *microlonys.Archived
	tinyPre  *media.Volume
}

// submitted is one job's bookkeeping on the benchmark side.
type submitted struct {
	job     serviceJob
	id      int64
	traced  bool
	refused bool
	late    time.Duration
	want    []byte
	out     bytes.Buffer // restore and salvage sink
	src     *timedReader // traced archive jobs
	sink    *timedWriter // traced restore and salvage jobs
}

// runService feeds an in-process jobs.Manager an open-loop schedule.
func runService(seed int64, seconds float64, trace bool) (*outcome, error) {
	var dumps [][]byte
	for v := 0; v < serviceVolumes; v++ {
		dumps = append(dumps, tpchDump(serviceScale, seed*serviceVolumes+int64(v)+1))
	}
	// Uncompressed, so the emulated restore decodes a handful of frames and
	// no system emblems: one DynaRisc job stays within a few light jobs'
	// time instead of stalling a worker for a second.
	tinyOpts := archiveOptions()
	tinyOpts.Compress = false
	in, setup, err := timedSetup(func() (serviceInputs, error) {
		in := serviceInputs{tiny: dumps[0][:dynariscBytes]}
		for _, d := range dumps {
			qs, err := buildQuerySet(d)
			if err != nil {
				return in, err
			}
			in.vols = append(in.vols, qs)
		}
		var err error
		if in.tinyArch, err = microlonys.ArchiveReader(bytes.NewReader(in.tiny), tinyOpts); err != nil {
			return in, err
		}
		in.tinyPre, err = prescan(in.tinyArch.Volume)
		return in, err
	})
	if err != nil {
		return nil, err
	}
	if _, err := guard(in.tinyArch.Volume, in.tinyPre, in.tinyArch.BootstrapText, in.tiny); err != nil {
		return nil, err
	}
	for _, qs := range in.vols {
		if err := qs.verify(); err != nil {
			return nil, err
		}
	}
	var replayed querySet // vols[0] with its scanner-side volume, for the layer replay
	if trace {
		replayed = *in.vols[0]
	}
	in.tinyArch = lean(in.tinyArch)
	for _, qs := range in.vols {
		qs.lean()
	}

	workers := runtime.NumCPU()
	window := time.Duration(seconds * float64(time.Second))
	n := int(serviceRate*seconds + 0.5)
	if n < serviceMinJobs {
		n = serviceMinJobs
	}
	plan := schedule(seed, n, window, in.vols)

	mgr, err := jobs.New(jobs.Config{Workers: workers, QueueDepth: serviceQueueDepth, Seed: seed})
	if err != nil {
		return nil, err
	}
	subs := make([]*submitted, len(plan))
	perKind := map[string]int{} // every other job of each kind is traced, so both halves share the mix
	mem := startMemPeak()
	start := time.Now()
	for i, j := range plan {
		if d := time.Until(start.Add(j.due)); d > 0 {
			time.Sleep(d)
		}
		s := &submitted{job: j, traced: trace && perKind[j.kind]%2 == 1}
		perKind[j.kind]++
		subs[i] = s
		req, err := in.request(s)
		if err != nil {
			_ = mgr.Drain(context.Background()) // the build error is what the caller needs
			return nil, err
		}
		s.late = time.Since(start.Add(j.due))
		s.id, err = mgr.Submit(req)
		s.refused = err != nil
	}

	mix := map[string]int{}
	for _, m := range serviceMix {
		mix[m.kind] = m.weight
	}
	o := &outcome{
		e2e: map[string]float64{"setup_s": setup}, traced: map[string]float64{}, layers: map[string]float64{},
		params: map[string]any{
			"tpch_scale": serviceScale, "volumes": serviceVolumes, "rate_per_s": serviceRate,
			"jobs": n, "workers": workers, "queue_depth": serviceQueueDepth, "mix_per_40": mix,
			"dynarisc_bytes": dynariscBytes,
		},
	}
	type done struct {
		s                 *submitted
		bytes             float64
		ok                bool
		latency, wait, rn float64
	}
	var results []done
	var last time.Time
	retries := 0
	for _, s := range subs {
		o.attempted++
		if s.refused {
			o.fail("job %d (%s): refused by admission", s.id, s.job.kind)
			results = append(results, done{s: s})
			continue
		}
		res, snap, err := mgr.Wait(context.Background(), s.id)
		retries += snap.Retries
		d := done{s: s}
		if err == nil {
			d.bytes, err = s.verify(res, in)
		}
		if err != nil {
			o.fail("job %d (%s): %v", s.id, s.job.kind, err)
		} else {
			d.ok = true
			d.latency = ms(snap.FinishedAt.Sub(start.Add(s.job.due)))
			d.wait = ms(snap.StartedAt.Sub(snap.SubmittedAt))
			d.rn = ms(snap.FinishedAt.Sub(snap.StartedAt))
		}
		if snap.FinishedAt.After(last) {
			last = snap.FinishedAt
		}
		results = append(results, d)
	}
	if err := mgr.Drain(context.Background()); err != nil {
		return nil, err
	}
	o.e2e["mem_peak_mb"] = mem.MB()

	span := last.Sub(start.Add(plan[0].due)).Seconds()
	figures := func(traced bool, into map[string]float64) {
		var lat []float64
		moved := 0.0
		for _, d := range results {
			if d.s.traced != traced {
				continue
			}
			if !d.ok {
				lat = append(lat, 1e3*span) // a failed job misses every latency figure
				continue
			}
			lat = append(lat, d.latency)
			moved += d.bytes
		}
		into["p50_ms"] = percentile(lat, 50)
		into["p90_ms"] = percentile(lat, 90)
		into["mb_s"] = moved / bytesPerMB / span
	}
	figures(false, o.e2e)
	frames, raw := 0, 0
	for _, qs := range in.vols {
		frames += qs.arch.Manifest.TotalFrames
		raw += qs.arch.Manifest.RawLen
	}
	o.e2e["frames_per_mb"] = float64(frames) / (float64(raw) / bytesPerMB)
	completed := 0
	for _, d := range results {
		if d.ok {
			completed++
		}
	}
	for _, d := range results {
		if !d.s.traced {
			o.samples++
		}
	}
	o.detail = map[string]any{
		"service_p50_ms": o.e2e["p50_ms"], "service_p90_ms": o.e2e["p90_ms"],
		"service_jobs_per_s": float64(completed) / span,
		"fail_ratio":         float64(o.failed) / float64(o.attempted),
	}
	if !trace {
		return o, nil
	}

	figures(true, o.traced)
	l := o.layers
	var waits, lates, reads, writes []float64
	runs := map[string][]float64{}
	busy := 0.0
	refused := 0
	for _, d := range results {
		lates = append(lates, ms(d.s.late))
		if d.s.refused {
			refused++
		}
		if !d.ok {
			continue
		}
		waits = append(waits, d.wait)
		runs[d.s.job.kind] = append(runs[d.s.job.kind], d.rn)
		busy += d.rn
		if d.s.src != nil {
			reads = append(reads, ms(d.s.src.busy))
		}
		if d.s.sink != nil && d.s.job.kind == "restore" {
			writes = append(writes, ms(d.s.sink.busy))
		}
	}
	l["jobs.queue_wait_p50_ms"] = percentile(waits, 50)
	l["jobs.queue_wait_p90_ms"] = percentile(waits, 90)
	for _, m := range serviceMix {
		l["jobs.run_p50_ms."+m.kind] = percentile(runs[m.kind], 50)
	}
	l["jobs.busy_ratio"] = busy / 1e3 / (float64(workers) * span)
	l["jobs.refused"] = float64(refused)
	l["jobs.retries"] = float64(retries)
	l["load.lateness_p90_ms"] = percentile(lates, 90)
	l["source.read_ms"] = percentile(reads, 50)
	l["sink.write_ms"] = percentile(writes, 50)

	// The archived-decoder emulation: serial DynaRisc restore minus the
	// serial native restore of the same pre-scanned volume, per frame.
	var cost [2]time.Duration
	for k, mode := range []microlonys.Mode{microlonys.RestoreNative, microlonys.RestoreDynaRisc} {
		var out bytes.Buffer
		t0 := time.Now()
		_, err := microlonys.RestoreTo(&out, in.tinyPre, in.tinyArch.BootstrapText,
			microlonys.RestoreOptions{Mode: mode, Workers: 1})
		cost[k] = time.Since(t0)
		if err != nil || !bytes.Equal(out.Bytes(), in.tiny) {
			return nil, fmt.Errorf("dynarisc replay (%v): output differs from the input (%v)", mode, err)
		}
	}
	l["dynarisc.emulation_ms_per_frame"] = ms(cost[1]-cost[0]) / float64(in.tinyPre.FrameCount())

	_, err = replay{
		data: replayed.dump, manifest: replayed.arch.Manifest, opts: replayed.arch.Options,
		scanned: replayed.scanned, pre: replayed.pre, stats: replayed.stats,
	}.run(l)
	return o, err
}

// request builds the manager request for one scheduled job.
func (in serviceInputs) request(s *submitted) (jobs.Request, error) {
	j := s.job
	v := in.vols[j.vol]
	if s.traced {
		s.sink = &timedWriter{w: &s.out}
	}
	sink := func(context.Context) (io.Writer, error) {
		s.out.Reset()
		if s.sink != nil {
			return s.sink, nil
		}
		return &s.out, nil
	}
	switch j.kind {
	case "archive":
		s.want = v.dump
		return jobs.Request{
			Kind: jobs.KindArchive, ArchiveOptions: archiveOptions(),
			Source: func(context.Context) (io.Reader, error) {
				r := io.Reader(bytes.NewReader(v.dump))
				if s.traced {
					s.src = &timedReader{r: r}
					r = s.src
				}
				return r, nil
			},
		}, nil
	case "restore":
		s.want = v.dump
		return jobs.Request{Kind: jobs.KindRestore, Volume: v.pre, BootstrapText: v.arch.BootstrapText, Sink: sink}, nil
	case "dynarisc":
		s.want = in.tiny
		return jobs.Request{
			Kind: jobs.KindRestore, Volume: in.tinyPre, BootstrapText: in.tinyArch.BootstrapText,
			RestoreOptions: microlonys.RestoreOptions{Mode: microlonys.RestoreDynaRisc}, Sink: sink,
		}, nil
	case "salvage":
		s.want = v.dump
		bag, err := salvageBag(v.pre, rand.New(rand.NewSource(j.bag)))
		if err != nil {
			return jobs.Request{}, err
		}
		return jobs.Request{Kind: jobs.KindSalvage, Sheets: bag, Sink: sink}, nil
	case "range":
		s.want = v.want(j.q)
		return jobs.Request{
			Kind: jobs.KindRange, Volume: v.pre, BootstrapText: v.arch.BootstrapText,
			Off: j.q.off, Length: j.q.len,
		}, nil
	case "table":
		s.want = v.want(j.q)
		return jobs.Request{Kind: jobs.KindTable, Volume: v.pre, BootstrapText: v.arch.BootstrapText, Table: j.q.table}, nil
	}
	return jobs.Request{}, fmt.Errorf("unknown job kind %q", j.kind)
}

// verify checks a succeeded job's output and returns the raw bytes it
// carried.
func (s *submitted) verify(res jobs.Result, in serviceInputs) (float64, error) {
	v := in.vols[s.job.vol]
	switch s.job.kind {
	case "archive":
		if res.Archived == nil || res.Archived.Manifest != v.arch.Manifest {
			return 0, fmt.Errorf("archive manifest differs from the set-up archive")
		}
		return float64(len(s.want)), nil
	case "range", "table":
		if err := v.check(s.job.q, res.Data, res.Stats); err != nil {
			return 0, err
		}
		return float64(len(s.want)), nil
	case "salvage":
		if res.Report == nil || !res.Report.Complete {
			return 0, fmt.Errorf("salvage incomplete")
		}
	}
	if !bytes.Equal(s.out.Bytes(), s.want) {
		return 0, fmt.Errorf("output differs from the input")
	}
	return float64(len(s.want)), nil
}
