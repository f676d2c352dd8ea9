package core

// P6 companions to the root-level BenchmarkP6Volume: the streaming
// pipeline measured against the seed buffered formulations preserved in
// reference_test.go — the only honest "buffered" baseline left, since the
// public APIs all stream now. BENCH_volume.json records the committed
// numbers.

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"microlonys/internal/bootstrap"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/media"
)

// streamProfile is dense and clean: one pixel per module puts the
// payload:pixel ratio near the format's floor (~19:1), so payload-level
// memory effects are visible over per-frame pixel work.
func streamProfile() media.Profile {
	l := emblem.Layout{DataW: 600, DataH: 400, PxPerModule: 1}
	return media.Profile{
		Name:   "stream-bench",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
	}
}

// benchHeapPeak samples HeapAlloc above the post-GC baseline while fn
// runs, with GC tightened (GOGC=20) so the peak tracks the live set
// instead of the collector's slack, and takes one final sample after fn
// returns (the buffered formulations peak at their very end). Treat the
// number as a magnitude: the gaps it exists to show are multiples.
func benchHeapPeak(fn func()) uint64 {
	old := debug.SetGCPercent(20)
	defer debug.SetGCPercent(old)
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	stop := make(chan struct{})
	done := make(chan struct{})
	var peak uint64
	sample := func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > peak {
			peak = m.HeapAlloc
		}
	}
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sample()
			time.Sleep(500 * time.Microsecond)
		}
	}()
	fn()
	sample()
	close(stop)
	<-done
	if peak < base.HeapAlloc {
		return 0
	}
	return peak - base.HeapAlloc
}

// retainedBytes measures, GC-precisely, the live bytes a pipeline variant
// holds at its high-water point: setup returns whatever the variant
// retains there, a forced GC collects everything else, and the live-set
// delta against the pre-setup baseline is exact — no sampling involved.
func retainedBytes(setup func() any) uint64 {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	hold := setup()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(hold)
	if after.HeapAlloc < base.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - base.HeapAlloc
}

// BenchmarkP6ArchivePeak prices what the streaming planner saves on the
// way out. The seed pipeline rasterized every frame before placing any,
// so at the place stage it holds the entire encoded frame list, as
// pixels, on top of the medium (the same frames, stored packed); the
// streaming pipeline holds the medium plus at most one group in flight. retained-B
// is the GC-exact live set at that point; peak-B the sampled high-water
// mark over the whole run.
func BenchmarkP6ArchivePeak(b *testing.B) {
	prof := streamProfile()
	capacity := mocoder.Capacity(prof.Layout)
	data := testPayload(60 * capacity) // 4 groups, 72 frames
	opts := DefaultOptions(prof)
	opts.Compress = false
	opts.Workers = 1

	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		var retained, peak uint64
		for i := 0; i < b.N; i++ {
			peak = benchHeapPeak(func() {
				retained = retainedBytes(func() any {
					arch, err := CreateArchiveStream(bytes.NewReader(data), opts)
					if err != nil {
						b.Fatal(err)
					}
					return arch // the medium; in-flight groups are gone
				})
			})
		}
		b.ReportMetric(float64(retained), "retained-B")
		b.ReportMetric(float64(peak), "peak-B")
	})
	b.Run("buffered", func(b *testing.B) {
		b.ReportAllocs()
		var retained, peak uint64
		for i := 0; i < b.N; i++ {
			peak = benchHeapPeak(func() {
				retained = retainedBytes(func() any {
					// The seed formulation: plan everything, encode
					// everything, then place everything — at the place
					// stage both the frame list and the medium are live.
					plan, err := splitStage(data, opts, capacity)
					if err != nil {
						b.Fatal(err)
					}
					frames, err := encodeStage(context.Background(), plan.tasks, prof.Layout, 1)
					if err != nil {
						b.Fatal(err)
					}
					m := media.New(prof)
					if err := m.Write(frames); err != nil {
						b.Fatal(err)
					}
					emu, mo, _, err := archivedPrograms()
					if err != nil {
						b.Fatal(err)
					}
					doc := bootstrap.New(prof.Name, prof.Layout, opts.GroupData, mocoder.GroupParity, emu, mo)
					return [3]any{frames, m, doc.Render()}
				})
			})
		}
		b.ReportMetric(float64(retained), "retained-B")
		b.ReportMetric(float64(peak), "peak-B")
	})
}

// BenchmarkP6ReassemblePeak isolates the reassemble stage — no pixels, no
// decoding — over synthetic decoded frames of a 20-group raw archive: the
// seed reassemble pads and retains every group's payloads and
// concatenates the whole stream before returning it, while the
// group-incremental assembler holds one group and flushes it to the
// writer. This is the restore-side streaming-vs-buffered comparison of
// the acceptance criteria, free of the per-frame decode churn that
// dominates end-to-end numbers.
func BenchmarkP6ReassemblePeak(b *testing.B) {
	prof := streamProfile()
	capacity := mocoder.Capacity(prof.Layout)
	data := testPayload(340 * capacity) // 20 groups, ~4.4 MB stream
	opts := DefaultOptions(prof)
	opts.Compress = false
	_, plans, err := planOnly(data, opts)
	if err != nil {
		b.Fatal(err)
	}
	var results []frameResult
	for _, gp := range plans {
		for _, task := range gp.tasks {
			results = append(results, frameResult{scanned: true, decoded: true, hdr: task.hdr, payload: task.payload})
		}
	}
	sheetOf := make([]int, len(results)) // one sheet; the stage is sheet-agnostic

	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		var peak uint64
		for i := 0; i < b.N; i++ {
			peak = benchHeapPeak(func() {
				st := &RestoreStats{Sheets: make([]SheetReport, 1)}
				asm := &assembler{
					st: st, capacity: capacity,
					out: io.Discard, sinks: map[emblem.Kind]*kindSink{},
					sheetOf: sheetOf, zeros: make([]byte, capacity), lastClosed: -1,
				}
				for j := range results {
					if err := asm.consume(j, &results[j]); err != nil {
						b.Fatal(err)
					}
				}
				if err := asm.finish(); err != nil {
					b.Fatal(err)
				}
			})
		}
		b.ReportMetric(float64(peak), "peak-B")
	})
	b.Run("buffered", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		var peak uint64
		for i := 0; i < b.N; i++ {
			peak = benchHeapPeak(func() {
				st := &RestoreStats{}
				out, _, err := referenceReassemble(results, capacity, &frameDecoder{mode: RestoreNative}, st)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != len(data) {
					b.Fatal("short reassemble")
				}
			})
		}
		b.ReportMetric(float64(peak), "peak-B")
	})
}

var _ = emblem.KindRaw // the synthetic results carry emblem headers
