// Command perfbench is the repository's end-to-end benchmark. One command
// runs a named workload from a seed, checks every output byte for byte
// against the generated input, and prints the metrics as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload bulk --seed 1 --seconds 25 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	bulk     ArchiveReader, RestoreTo and SalvageTo of a ~1 MB TPC-H dump
//	         whose pre-scanned volume carries seeded, recoverable damage
//	query    one closed-loop client issuing seeded RestoreTable and
//	         RestoreRange queries against a ~2 MB indexed volume
//	service  an in-process jobs.Manager fed by an open-loop, seeded
//	         arrival schedule of archive, restore, range, table, salvage
//	         and DynaRisc-restore jobs on two ~256 KB indexed volumes
//
// Restore-side inputs are pre-scanned during set-up (Volume.Reprint, then a
// distortion-free scanner), so timed restores decode exactly the pixels the
// scanner model produces without running it; the scanner is timed on its
// own as media.scan_ms_per_frame and moves no end-to-end metric.
//
// End-to-end metrics (--trace 0), the same names on every workload:
//
//	setup_s        median of three set-ups (archive, damage, pre-scan)
//	mb_s           raw archive MB (10^6 B) the timed operations carry per
//	               second: bulk counts the dump once per phase over the
//	               median round; query counts bytes returned over the
//	               client's busy time; service counts each completed job's
//	               raw bytes over the span from the first due time to the
//	               last completion
//	p50_ms, p90_ms latency of one operation: a bulk round (archive +
//	               restore + salvage), a query, or a job timed from its due
//	               time
//	frames_per_mb  frames written per raw MB by the workload's archives
//	mem_peak_mb    peak live heap while the timed operations run
//
// --trace 1 interleaves traced and untraced operations, then replays the
// layers (dbcoder, mocoder, media) on the workload's volume by calling
// their public functions, and prints the per-layer metrics; the
// trace.overhead_pct.* metrics compare the traced operations with the
// untraced ones of the same run. Metrics of a layer the workload does not
// exercise print as 0 and are listed under "not_exercised" in the report.
//
// The line before the result is a report: host, CPU, nproc, GOMAXPROCS, Go
// version, commit, seed, workload parameters, sample counts and the
// workload's own figures (archive_mb_s, query_p50_ms, fail_ratio, ...).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	wrong             []string // correctness violations, empty when every output matched

	e2e    map[string]float64 // untraced operations only
	traced map[string]float64 // the same figures over traced operations (--trace 1)
	layers map[string]float64 // per-layer metrics (--trace 1)

	params  map[string]any
	detail  map[string]any
	samples int
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
}

var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"mb_s", "MB/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"frames_per_mb", "frames/MB"},
	{"mem_peak_mb", "MB"},
}

var layerUnits = []struct{ name, unit string }{
	{"source.read_ms", "ms"},
	{"dbcoder.compress_ms", "ms"},
	{"dbcoder.decompress_ms", "ms"},
	{"dbcoder.ratio", "ratio"},
	{"sink.write_ms", "ms"},
	{"mocoder.encode_ms_per_frame", "ms"},
	{"mocoder.parity_ms_per_group", "ms"},
	{"mocoder.decode_ms_per_frame", "ms"},
	{"mocoder.frames_failed", "count"},
	{"mocoder.bytes_corrected", "count"},
	{"mocoder.recover_ms_per_group", "ms"},
	{"media.place_ms_per_frame", "ms"},
	{"media.scan_ms_per_frame", "ms"},
	{"core.archive_ms", "ms"},
	{"core.restore_ms", "ms"},
	{"core.salvage_ms", "ms"},
	{"core.restore_other_ms", "ms"},
	{"core.groups_recovered", "count"},
	{"salvage.sheets_identified", "count"},
	{"salvage.catalog_frames", "count"},
	{"salvage.duplicates", "count"},
	{"core.frames_scanned_per_query", "count"},
	{"core.frames_touched_pct", "%"},
	{"core.groups_decoded_per_query", "count"},
	{"archindex.index_frames_per_query", "count"},
	{"core.index_fallbacks", "count"},
	{"query.useful_byte_ratio", "ratio"},
	{"jobs.queue_wait_p50_ms", "ms"},
	{"jobs.queue_wait_p90_ms", "ms"},
	{"jobs.run_p50_ms.archive", "ms"},
	{"jobs.run_p50_ms.restore", "ms"},
	{"jobs.run_p50_ms.range", "ms"},
	{"jobs.run_p50_ms.table", "ms"},
	{"jobs.run_p50_ms.salvage", "ms"},
	{"jobs.run_p50_ms.dynarisc", "ms"},
	{"jobs.busy_ratio", "ratio"},
	{"jobs.refused", "count"},
	{"jobs.retries", "count"},
	{"load.lateness_p90_ms", "ms"},
	{"dynarisc.emulation_ms_per_frame", "ms"},
	{"trace.overhead_pct.mb_s", "%"},
	{"trace.overhead_pct.p50_ms", "%"},
	{"trace.overhead_pct.p90_ms", "%"},
}

var workloads = map[string]func(seed int64, seconds float64, trace bool) (*outcome, error){
	"bulk":    runBulk,
	"query":   runQuery,
	"service": runService,
}

func main() {
	workload := flag.String("workload", "", "bulk, query or service")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload bulk|query|service --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	o, err := run(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if *trace == 1 {
		o.layers["trace.overhead_pct.mb_s"] = overheadPct(o.traced["mb_s"], o.e2e["mb_s"])
		for _, m := range []string{"p50_ms", "p90_ms"} {
			o.layers["trace.overhead_pct."+m] = overheadPct(o.e2e[m], o.traced[m])
		}
	}

	res := result{Correct: len(o.wrong) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	var missing []string
	if *trace == 1 {
		for _, m := range layerUnits {
			v, ok := o.layers[m.name]
			if !ok {
				missing = append(missing, m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	} else {
		for _, m := range e2eUnits {
			res.Metrics[m.name] = metric{o.e2e[m.name], m.unit}
		}
	}
	report := map[string]any{
		"host":          hostRecord(),
		"workload":      *workload,
		"seed":          *seed,
		"seconds":       *seconds,
		"trace":         *trace,
		"params":        o.params,
		"samples":       o.samples,
		"detail":        o.detail,
		"e2e":           o.e2e,
		"not_exercised": missing,
		"wrong":         o.wrong,
	}
	if *trace == 1 {
		report["traced_e2e"] = o.traced
	}
	emit(report)
	emit(res)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// overheadPct is how much larger cost is than base, in percent: for a
// latency pass (untraced, traced), for a throughput (traced, untraced), so
// a positive figure is always a tracing cost.
func overheadPct(base, cost float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (cost/base - 1)
}

func hostRecord() map[string]any {
	host, _ := os.Hostname()
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"hostname":   host,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// memPeak tracks the live heap (what the last collection found reachable)
// while the timed operations run: the inputs, what the operations hold on
// to, and their buffers in flight. Unlike resident memory it does not move
// with where the collector's pacing happens to be when a run ends.
type memPeak struct {
	stop, done chan struct{}
	peak       uint64
}

func startMemPeak() *memPeak {
	runtime.GC()
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if live := sample[0].Value.Uint64(); live > m.peak {
			m.peak = live
		}
	}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-tick.C:
			case <-m.stop:
				return
			}
		}
	}()
	return m
}

// MB stops the sampler and returns the peak in MB, counting what the
// operations still hold after a final collection.
func (m *memPeak) MB() float64 {
	close(m.stop)
	<-m.done
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if live := sample[0].Value.Uint64(); live > m.peak {
		m.peak = live
	}
	return float64(m.peak) / 1e6
}

// percentile is the p-th percentile (0..100) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(r)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

const bytesPerMB = 1e6

// setupReps is how many times each workload builds its inputs; setup_s is
// the median, so one slow build does not move it.
const setupReps = 3

// timedSetup runs build setupReps times and returns the last result and
// the median wall time in seconds.
func timedSetup[T any](build func() (T, error)) (T, float64, error) {
	var out, zero T
	var walls []float64
	for i := 0; i < setupReps; i++ {
		out = zero
		runtime.GC() // collect the previous build outside the timing
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return zero, 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		out = v
	}
	return out, percentile(walls, 50), nil
}
