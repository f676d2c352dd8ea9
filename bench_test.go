// Experiment harness: one benchmark per table and figure of the paper
// (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
// recorded paper-vs-measured results).
//
//	T1  Table 1   DynaRisc instruction set + dispatch cost
//	F1  Figure 1  emblem render
//	F2  Figure 2  end-to-end archival/restoration pipeline
//	E1  §4        paper archive (TPC-H → A4 @600 dpi)
//	E2  §4        microfilm archive (102 KB image → 3 frames)
//	E3  §4        cinema film archive (2K frames, 4K rescan)
//	E4  §4        portability: Bootstrap size accounting
//	E5  §3.1      inner-code damage sweep (7.2 % cliff)
//	E6  §3.1      DBCoder vs LZMA-class compression
//	E7  §5        capacity arithmetic (reels, pages, DNA)
//	E8  ablation  emulation overhead (native/DynaRisc/nested)
//	E9  ablation  self-clocking vs absolute grid vs QR baseline
//	E10 §5 ext.   columnar DBCoder layout vs generic
//	E11 §5 ext.   DNA archival channel (coverage sweep)
//	P1  ext.      concurrent frame pipeline: workers sweep (archive)
//	P2  ext.      concurrent frame pipeline: workers sweep (restore ×3 modes)
//	P3  ext.      concurrent frame pipeline: serial vs parallel per profile
//	P4  ext.      emulated restore: time and allocations per frame
//	P5  ext.      archive hot path: time and allocations per frame
//	P6  ext.      multi-volume streaming: sheet sweep, sheet-loss restore,
//	              streaming vs buffered restore allocation
//	P7  ext.      restore scan hot path: per-frame decode, RS decode
//	              (clean/damaged/erasures), group recovery, serial native
//	              restore
package microlonys_test

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"microlonys"
	"microlonys/dynarisc"
	"microlonys/internal/columnar"
	"microlonys/internal/dbcoder"
	"microlonys/internal/dnasim"
	"microlonys/internal/dynprog"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/internal/nested"
	"microlonys/internal/qrbase"
	"microlonys/internal/rs"
	"microlonys/internal/sqldump"
	"microlonys/media"
	"microlonys/raster"
	"microlonys/tpch"
)

// ---- shared fixtures -------------------------------------------------

var (
	dumpOnce sync.Once
	dumpData []byte // ≈1.2 MB TPC-H SQL archive (the E1 workload)
)

// tpchDump builds the paper's E1 workload once.
func tpchDump() []byte {
	dumpOnce.Do(func() {
		_, db := tpch.FitScaleFactor(1_200_000, 7, sqldump.Dump)
		dumpData = sqldump.Dump(db)
	})
	return dumpData
}

// logoPayload stands in for the 102 KB Olonys-logo TIFF of E2/E3: a
// deterministic pseudo-image (smooth gradients with structure, so it is
// neither all-zero nor incompressible noise).
func logoPayload() []byte {
	p := make([]byte, 102*1024)
	for i := range p {
		x, y := i%512, i/512
		p[i] = byte((x*x/97 + y*y/89 + x*y/101) % 251)
	}
	return p
}

// benchProfile is a mid-size medium for pipeline-level iteration.
func benchProfile() media.Profile {
	l := emblem.Layout{DataW: 120, DataH: 90, PxPerModule: 3}
	return media.Profile{
		Name:   "bench",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
		Scanner: media.Distortions{
			RotationDeg: 0.1, BlurRadius: 1, Noise: 2, DustSpecks: 2,
		},
	}
}

// ---- T1: Table 1 — DynaRisc ISA ---------------------------------------

// BenchmarkTable1DynaRiscDispatch measures the reference CPU running a
// mixed stream of the Table 1 instruction classes, and reports the ISA
// size the table fixes (23 opcodes).
func BenchmarkTable1DynaRiscDispatch(b *testing.B) {
	src := `
	        LDI   R0, #0
	        LDI   R1, #1
	        LDI   R2, #10000
	loop:   ADD   R0, R1
	        MOVE  R3, R0
	        LSL   R3, R1
	        XOR   R3, R0
	        CMP   R0, R2
	        JNZ   loop
	        HALT
	`
	prog, err := dynarisc.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu := dynarisc.NewCPU(1 << 16)
		if err := cpu.LoadProgram(prog.Org, prog.Words); err != nil {
			b.Fatal(err)
		}
		if err := cpu.Run(); err != nil {
			b.Fatal(err)
		}
		steps = cpu.Steps
	}
	b.ReportMetric(float64(len(dynarisc.ISATable())), "opcodes")
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// ---- F1: Figure 1 — a sample emblem ------------------------------------

// BenchmarkFigure1EmblemRender renders one emblem from digital data, the
// artifact Figure 1 shows (cmd/emblem -demo writes the PNG itself).
func BenchmarkFigure1EmblemRender(b *testing.B) {
	l := media.Microfilm().Layout
	payload := make([]byte, mocoder.Capacity(l))
	rand.New(rand.NewSource(1)).Read(payload)
	hdr := emblem.Header{Kind: emblem.KindRaw}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	var img *raster.Gray
	for i := 0; i < b.N; i++ {
		var err error
		img, err = mocoder.Encode(payload, hdr, l)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(payload)), "payload_B")
	b.ReportMetric(float64(img.W*img.H), "pixels")
}

// ---- F2: Figure 2 — the end-to-end pipeline ----------------------------

// BenchmarkFigure2Pipeline runs the complete archival (Fig. 2a) and
// restoration (Fig. 2b) flow per iteration on a mid-size medium.
func BenchmarkFigure2Pipeline(b *testing.B) {
	data := tpchDump()[:64*1024]
	opts := microlonys.DefaultOptions(benchProfile())
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arch, err := microlonys.Archive(data, opts)
		if err != nil {
			b.Fatal(err)
		}
		got, _, err := microlonys.Restore(arch.Medium, arch.BootstrapText, microlonys.RestoreNative)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			b.Fatal("round trip mismatch")
		}
	}
}

// ---- E1: paper archive --------------------------------------------------

// BenchmarkE1PaperArchiveEncode encodes the ≈1.2 MB TPC-H SQL archive to
// A4 pages at 600 dpi (the paper: 26 emblems, 50 KB/page, ~6 min with
// printing).
func BenchmarkE1PaperArchiveEncode(b *testing.B) {
	dump := tpchDump()
	opts := microlonys.DefaultOptions(media.Paper())
	opts.Compress = false // the paper archived the dump uncompressed
	b.SetBytes(int64(len(dump)))
	var man microlonys.Manifest
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arch, err := microlonys.Archive(dump, opts)
		if err != nil {
			b.Fatal(err)
		}
		man = arch.Manifest
	}
	b.ReportMetric(float64(man.TotalFrames), "pages")
	b.ReportMetric(float64(man.RawLen)/float64(man.DataEmblems)/1024, "KB/page")
}

// BenchmarkE1PaperArchiveDecode scans and restores the E1 archive (the
// paper: 3 m 20 s on an i9 with a C++ VeRisc emulator).
func BenchmarkE1PaperArchiveDecode(b *testing.B) {
	dump := tpchDump()
	opts := microlonys.DefaultOptions(media.Paper())
	opts.Compress = false
	arch, err := microlonys.Archive(dump, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(dump)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := microlonys.Restore(arch.Medium, arch.BootstrapText, microlonys.RestoreNative)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got, dump) {
			b.Fatal("restore mismatch")
		}
	}
}

// ---- E2/E3: film archives ------------------------------------------------

func benchFilm(b *testing.B, profile media.Profile) {
	payload := logoPayload()
	opts := microlonys.DefaultOptions(profile)
	opts.Compress = false // the paper stored the TIFF directly
	b.SetBytes(int64(len(payload)))
	var man microlonys.Manifest
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arch, err := microlonys.Archive(payload, opts)
		if err != nil {
			b.Fatal(err)
		}
		man = arch.Manifest
		got, _, err := microlonys.Restore(arch.Medium, arch.BootstrapText, microlonys.RestoreNative)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			b.Fatal("film round trip mismatch")
		}
	}
	b.ReportMetric(float64(man.DataEmblems), "data_frames")
	b.ReportMetric(float64(man.TotalFrames), "frames")
}

// BenchmarkE2MicrofilmArchive writes the 102 KB image to 16 mm microfilm
// frames (3888×5498 bitonal; the paper: 3 emblems) and restores it from
// the simulated high-resolution rescan.
func BenchmarkE2MicrofilmArchive(b *testing.B) { benchFilm(b, media.Microfilm()) }

// BenchmarkE3CinemaFilmArchive writes the same image to 35 mm cinema film
// (2048×1556 2K frames; the paper: 3 emblems in 3 full-aperture frames)
// scanned back in 4K grayscale.
func BenchmarkE3CinemaFilmArchive(b *testing.B) { benchFilm(b, media.CinemaFilm()) }

// ---- E4: portability ------------------------------------------------------

// BenchmarkE4BootstrapSize builds the Bootstrap document and reports the
// page accounting (the paper: a seven-page document — four pages of
// pseudocode plus three pages of letters).
func BenchmarkE4BootstrapSize(b *testing.B) {
	opts := microlonys.DefaultOptions(media.Paper())
	var arch *microlonys.Archived
	var err error
	for i := 0; i < b.N; i++ {
		arch, err = microlonys.Archive([]byte("x"), opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	st := arch.Bootstrap.PageStats()
	b.ReportMetric(float64(st.PseudocodePages), "pseudo_pages")
	b.ReportMetric(float64(st.LetterPages), "letter_pages")
	b.ReportMetric(float64(st.TotalPages), "pages")
	b.ReportMetric(float64(st.PseudocodeLines), "pseudo_lines")
}

// ---- E5: inner-code damage sweep -------------------------------------------

// BenchmarkE5DamageSweep corrupts a growing fraction of each inner-code
// block's user data in the rendered stream, then decodes the emblem.
// §3.1 claims automatic correction of up to 7.2 % damaged data within a
// single emblem (16 of 223 bytes per RS block); the success metric must
// hold 1.0 up to that fraction and collapse immediately above it.
func BenchmarkE5DamageSweep(b *testing.B) {
	l := emblem.Layout{DataW: 180, DataH: 135, PxPerModule: 3}
	spec := mocoder.Spec(l)
	payload := make([]byte, spec.Capacity)
	rand.New(rand.NewSource(2)).Read(payload)
	hdr := emblem.Header{Kind: emblem.KindRaw}

	for _, pct := range []float64{0, 2, 4, 6, 7, 8, 10} {
		b.Run(fmt.Sprintf("damage=%g%%", pct), func(b *testing.B) {
			success, corrected, trials := 0, 0, 0
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)*7919 + 13))
				img, err := mocoder.EncodeDamaged(payload, hdr, l, func(stream []byte) {
					for blk, dataLen := range spec.BlockDataLens {
						nErr := int(pct / 100 * float64(dataLen))
						for _, j := range rng.Perm(dataLen)[:nErr] {
							stream[spec.StreamPos(blk, j)] ^= 0xA5
						}
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				got, _, st, err := mocoder.Decode(img, l)
				trials++
				if err == nil && bytes.Equal(got, payload) {
					success++
					if st != nil {
						corrected += st.BytesCorrected
					}
				}
			}
			b.ReportMetric(float64(success)/float64(trials), "success")
			b.ReportMetric(float64(corrected)/float64(trials), "corrected_B")
		})
	}
}

// ---- E6: compression ---------------------------------------------------------

// BenchmarkE6Compression compares DBCoder (LZ77 + adaptive binary range
// coding) against stdlib flate at maximum effort on the TPC-H SQL text —
// the paper claims performance "close to 7-Zip's LZMA" for this class of
// input.
func BenchmarkE6Compression(b *testing.B) {
	dump := tpchDump()
	b.Run("dbcoder", func(b *testing.B) {
		b.SetBytes(int64(len(dump)))
		var n int
		for i := 0; i < b.N; i++ {
			n = len(dbcoder.Compress(dump))
		}
		b.ReportMetric(float64(len(dump))/float64(n), "ratio")
		b.ReportMetric(float64(n), "bytes")
	})
	b.Run("flate9", func(b *testing.B) {
		b.SetBytes(int64(len(dump)))
		var n int
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			w, _ := flate.NewWriter(&buf, flate.BestCompression)
			w.Write(dump)
			w.Close()
			n = buf.Len()
		}
		b.ReportMetric(float64(len(dump))/float64(n), "ratio")
		b.ReportMetric(float64(n), "bytes")
	})
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = dump
		}
		b.ReportMetric(1.0, "ratio")
		b.ReportMetric(float64(len(dump)), "bytes")
	})
}

// BenchmarkE10ColumnarLayout measures the paper's §5 future-work claim:
// a database-specific, compressed, columnar layout versus the generic
// DBCoder path on the same TPC-H archive. (Standalone extension — the
// ULE pipeline archives the generic layout, whose decoder is stored on
// the medium; the columnar DynaRisc decoder is future work here as in
// the paper.)
func BenchmarkE10ColumnarLayout(b *testing.B) {
	dump := tpchDump()
	b.Run("columnar", func(b *testing.B) {
		b.SetBytes(int64(len(dump)))
		var n int
		for i := 0; i < b.N; i++ {
			blob, err := columnar.Compress(dump)
			if err != nil {
				b.Fatal(err)
			}
			n = len(blob)
		}
		b.ReportMetric(float64(len(dump))/float64(n), "ratio")
		b.ReportMetric(float64(n), "bytes")
	})
	b.Run("columnar-decode", func(b *testing.B) {
		blob, err := columnar.Compress(dump)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(dump)))
		for i := 0; i < b.N; i++ {
			got, err := columnar.Decompress(blob)
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(got, dump) {
				b.Fatal("columnar round trip mismatch")
			}
		}
	})
}

// ---- E7: capacity arithmetic ---------------------------------------------------

// BenchmarkE7CapacityModel evaluates the §5 scale arithmetic: 1.3 GB per
// 66 m reel ⇒ ~800 reels per terabyte, versus DNA at 1 EB/mm³.
func BenchmarkE7CapacityModel(b *testing.B) {
	var rep media.ScaleReport
	for i := 0; i < b.N; i++ {
		rep = media.Scale(1 << 40) // 1 TB
	}
	reel := media.MicrofilmReel()
	b.ReportMetric(float64(reel.Bytes())/1e9, "GB/reel")
	b.ReportMetric(float64(rep.Reels), "reels/TB")
	b.ReportMetric(float64(rep.Pages), "pages/TB")
	b.ReportMetric(rep.DNAVolumeMM3*1e12, "DNA_pm3/TB")
}

// ---- E8: emulation overhead ------------------------------------------------------

// BenchmarkE8EmulationOverhead decodes the same scanned emblem three
// ways: the native Go decoder, the archived MODecode stream on the
// DynaRisc reference CPU, and the same stream under the VeRisc-hosted
// emulator — quantifying what the nested portability strategy costs.
func BenchmarkE8EmulationOverhead(b *testing.B) {
	l := emblem.Layout{DataW: 80, DataH: 64, PxPerModule: 2}
	payload := make([]byte, mocoder.Capacity(l))
	rand.New(rand.NewSource(3)).Read(payload)
	hdr := emblem.Header{Kind: emblem.KindRaw, GroupData: 1, GroupParity: 0}
	scan, err := mocoder.Encode(payload, hdr, l)
	if err != nil {
		b.Fatal(err)
	}
	moProg, err := dynprog.MODecode()
	if err != nil {
		b.Fatal(err)
	}
	in := make([]uint16, 0, 4+len(scan.Pix))
	in = append(in, uint16(scan.W), uint16(scan.H), uint16(l.DataW), uint16(l.DataH))
	for _, p := range scan.Pix {
		in = append(in, uint16(p))
	}

	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got, _, _, err := mocoder.Decode(scan, l)
			if err != nil || !bytes.Equal(got, payload) {
				b.Fatal("native decode failed")
			}
		}
	})
	b.Run("dynarisc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cpu := dynarisc.NewCPU(dynprog.MOMemWords(scan))
			if err := cpu.LoadProgram(moProg.Org, moProg.Words); err != nil {
				b.Fatal(err)
			}
			cpu.In = in
			if err := cpu.Run(); err != nil {
				b.Fatal(err)
			}
			out := cpu.OutBytes()
			if len(out) < emblem.HeaderSize || !bytes.Equal(out[emblem.HeaderSize:], payload) {
				b.Fatal("dynarisc decode mismatch")
			}
		}
	})
	b.Run("nested", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := nested.Run(moProg, in, dynprog.MOMemWords(scan), 0)
			if err != nil {
				b.Fatal(err)
			}
			outB := make([]byte, len(out))
			for j, w := range out {
				outB[j] = byte(w)
			}
			if len(outB) < emblem.HeaderSize || !bytes.Equal(outB[emblem.HeaderSize:], payload) {
				b.Fatal("nested decode mismatch")
			}
		}
	})
}

// ---- E9: clocking ablation ----------------------------------------------------------

// BenchmarkE9ClockingAblation sweeps scanner row jitter over three
// layouts of the same Reed-Solomon-protected stream: Differential-
// Manchester emblems (self-clocking), absolute-grid emblems (same
// geometry, no clock pairing) and the QR-style baseline. §3.1's design
// argument predicts the self-clocking emblems keep decoding after the
// absolute grids fail.
func BenchmarkE9ClockingAblation(b *testing.B) {
	// Fine pitch (2 px/module) is the archival operating point §3.1 cares
	// about: capture resolution barely above code resolution, where QR's
	// many-pixels-per-dot assumption fails.
	l := emblem.Layout{DataW: 120, DataH: 90, PxPerModule: 2}
	payload := make([]byte, mocoder.Capacity(l))
	rand.New(rand.NewSource(4)).Read(payload)
	hdr := emblem.Header{Kind: emblem.KindRaw}

	dm, err := mocoder.Encode(payload, hdr, l)
	if err != nil {
		b.Fatal(err)
	}
	abs, err := mocoder.EncodeAbsolute(payload, hdr, l)
	if err != nil {
		b.Fatal(err)
	}
	qrPayload := payload[:64] // QR capacity is far smaller
	qr, _, err := qrbase.Encode(qrPayload, qrbase.DefaultParity, 2)
	if err != nil {
		b.Fatal(err)
	}

	const trialsPerOp = 8
	for _, jitter := range []float64{0, 1, 2, 3, 4, 5} {
		for _, arm := range []string{"dm", "absolute", "qr"} {
			b.Run(fmt.Sprintf("jitter=%.1fpx/%s", jitter, arm), func(b *testing.B) {
				success, trials := 0, 0
				for i := 0; i < b.N; i++ {
					for t := 0; t < trialsPerOp; t++ {
						d := media.Distortions{RowJitterPx: jitter, Seed: int64(i*trialsPerOp+t) + 1}
						trials++
						switch arm {
						case "dm":
							got, _, _, err := mocoder.Decode(d.Apply(dm), l)
							if err == nil && bytes.Equal(got, payload) {
								success++
							}
						case "absolute":
							got, _, _, err := mocoder.DecodeAbsolute(d.Apply(abs), l)
							if err == nil && bytes.Equal(got, payload) {
								success++
							}
						case "qr":
							got, _, err := qrbase.Decode(d.Apply(qr), qrbase.DefaultParity)
							if err == nil && bytes.Equal(got, qrPayload) {
								success++
							}
						}
					}
				}
				b.ReportMetric(float64(success)/float64(trials), "success")
			})
		}
	}
}

// ---- P1–P3: concurrent frame pipeline ----------------------------------------

// pipelineWorkerCounts is the sweep used by the P benchmarks: the serial
// reference, small fixed pools, and 0 = GOMAXPROCS.
var pipelineWorkerCounts = []int{1, 2, 4, 8, 0}

// BenchmarkP1ArchiveWorkers measures CreateArchive's frame-encode fan-out.
// The payload is archived raw (as in E1/E2/E3), so per-frame emblem
// rasterization dominates and throughput scales with the worker count;
// with DBCoder enabled the serial split stage bounds the speedup instead
// (Amdahl — see BenchmarkE6Compression for that cost).
func BenchmarkP1ArchiveWorkers(b *testing.B) {
	data := tpchDump()[:256*1024]
	for _, w := range pipelineWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := microlonys.DefaultOptions(benchProfile())
			opts.Compress = false
			opts.Workers = w
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := microlonys.Archive(data, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP2RestoreWorkers measures Restore's scan/decode fan-out in all
// three execution modes. Native restores the 256 KB archive; the emulated
// modes restore a smaller one (DynaRisc decodes each frame in seconds,
// nested in minutes — the overhead E8 quantifies per frame).
func BenchmarkP2RestoreWorkers(b *testing.B) {
	archive := func(b *testing.B, n int, compress bool) (*microlonys.Archived, []byte) {
		data := tpchDump()[:n]
		opts := microlonys.DefaultOptions(benchProfile())
		opts.Compress = compress
		arch, err := microlonys.Archive(data, opts)
		if err != nil {
			b.Fatal(err)
		}
		return arch, data
	}

	run := func(b *testing.B, arch *microlonys.Archived, data []byte, mode microlonys.Mode, w int) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			got, _, err := microlonys.RestoreWith(arch.Medium, arch.BootstrapText,
				microlonys.RestoreOptions{Mode: mode, Workers: w})
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				b.Fatal("restore mismatch")
			}
		}
	}

	b.Run("native", func(b *testing.B) {
		arch, data := archive(b, 256*1024, true)
		for _, w := range pipelineWorkerCounts {
			b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { run(b, arch, data, microlonys.RestoreNative, w) })
		}
	})
	b.Run("dynarisc", func(b *testing.B) {
		arch, data := archive(b, 8*1024, true)
		for _, w := range pipelineWorkerCounts {
			b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { run(b, arch, data, microlonys.RestoreDynaRisc, w) })
		}
	})
	b.Run("nested", func(b *testing.B) {
		if testing.Short() {
			b.Skip("nested emulation is slow; skipped in -short mode")
		}
		// Raw mode keeps this to one group of four small frames, as in
		// the core nested tests.
		data := tpchDump()[:2*benchProfile().FrameCapacity()]
		opts := microlonys.DefaultOptions(benchProfile())
		opts.Compress = false
		arch, err := microlonys.Archive(data, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { run(b, arch, data, microlonys.RestoreNested, w) })
		}
	})
}

// BenchmarkP3ProfilePipeline compares the serial reference (workers=1)
// against the default pool (workers=0 ⇒ GOMAXPROCS) for an archive+restore
// round trip on each of the paper's three media profiles, at a payload
// small enough that the full-resolution frames stay benchable.
func BenchmarkP3ProfilePipeline(b *testing.B) {
	payload := logoPayload()
	for _, prof := range []media.Profile{media.Paper(), media.Microfilm(), media.CinemaFilm()} {
		for _, w := range []int{1, 0} {
			b.Run(fmt.Sprintf("%s/workers=%d", prof.Name, w), func(b *testing.B) {
				opts := microlonys.DefaultOptions(prof)
				opts.Compress = false // as in E2/E3: the payload is image-like
				opts.Workers = w
				b.SetBytes(int64(len(payload)))
				for i := 0; i < b.N; i++ {
					arch, err := microlonys.Archive(payload, opts)
					if err != nil {
						b.Fatal(err)
					}
					got, _, err := microlonys.RestoreWith(arch.Medium, arch.BootstrapText,
						microlonys.RestoreOptions{Mode: microlonys.RestoreNative, Workers: w})
					if err != nil {
						b.Fatal(err)
					}
					if !bytes.Equal(got, payload) {
						b.Fatal("round trip mismatch")
					}
				}
			})
		}
	}
}

// ---- P4: emulated restore hot path --------------------------------------------

// BenchmarkP4EmulatedRestore measures the emulated-restore hot path this
// repo's perf work targets: end-to-end Restore in the DynaRisc and
// nested modes at serial and default worker counts, with allocation
// reporting. Per-worker emulator reuse should hold allocations per
// restore roughly constant in the frame count (one machine image per
// worker, one payload per frame) rather than one multi-megabyte image
// per frame; the fused interpreter loops set the ns/frame floor.
func BenchmarkP4EmulatedRestore(b *testing.B) {
	run := func(b *testing.B, arch *microlonys.Archived, data []byte, mode microlonys.Mode, w int) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		frames := arch.Manifest.TotalFrames
		for i := 0; i < b.N; i++ {
			got, _, err := microlonys.RestoreWith(arch.Medium, arch.BootstrapText,
				microlonys.RestoreOptions{Mode: mode, Workers: w})
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				b.Fatal("restore mismatch")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(frames)/1e6, "ms/frame")
	}

	b.Run("dynarisc", func(b *testing.B) {
		data := tpchDump()[:8*1024]
		opts := microlonys.DefaultOptions(benchProfile())
		arch, err := microlonys.Archive(data, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{1, 0} {
			b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
				run(b, arch, data, microlonys.RestoreDynaRisc, w)
			})
		}
	})
	b.Run("nested", func(b *testing.B) {
		if testing.Short() {
			b.Skip("nested emulation is slow; skipped in -short mode")
		}
		data := tpchDump()[:2*benchProfile().FrameCapacity()]
		opts := microlonys.DefaultOptions(benchProfile())
		opts.Compress = false // one 4-frame group keeps nested benchable
		arch, err := microlonys.Archive(data, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
				run(b, arch, data, microlonys.RestoreNested, w)
			})
		}
	})

	// Per-frame decoder cost in isolation, one iteration = one frame
	// through a reused emulator — the counterpart of E8's fresh-machine
	// numbers, and the direct measure of what Reset/reuse saves.
	b.Run("frame-reuse", func(b *testing.B) {
		l := emblem.Layout{DataW: 80, DataH: 64, PxPerModule: 2}
		payload := make([]byte, mocoder.Capacity(l))
		rand.New(rand.NewSource(3)).Read(payload)
		hdr := emblem.Header{Kind: emblem.KindRaw, GroupData: 1, GroupParity: 0}
		scan, err := mocoder.Encode(payload, hdr, l)
		if err != nil {
			b.Fatal(err)
		}
		moProg, err := dynprog.MODecode()
		if err != nil {
			b.Fatal(err)
		}
		in := dynprog.MOInput(scan, l)

		b.Run("dynarisc", func(b *testing.B) {
			b.ReportAllocs()
			cpu := dynarisc.NewCPU(dynprog.MOMemWords(scan))
			decode := func() []byte {
				cpu.Reset()
				if err := cpu.LoadProgram(moProg.Org, moProg.Words); err != nil {
					b.Fatal(err)
				}
				cpu.In = in
				if err := cpu.Run(); err != nil {
					b.Fatal(err)
				}
				return cpu.OutBytes()
			}
			decode()       // warm-up grows the reused Out buffer once
			b.ResetTimer() // …so iterations measure the steady state
			for i := 0; i < b.N; i++ {
				out := decode()
				if len(out) < emblem.HeaderSize || !bytes.Equal(out[emblem.HeaderSize:], payload) {
					b.Fatal("dynarisc decode mismatch")
				}
			}
		})
		b.Run("nested", func(b *testing.B) {
			if testing.Short() {
				b.Skip("nested emulation is slow; skipped in -short mode")
			}
			b.ReportAllocs()
			emu, err := nested.Program()
			if err != nil {
				b.Fatal(err)
			}
			r := nested.NewRunner()
			if _, err := r.RunAppendBytes(nil, emu, moProg, in, dynprog.MOMemWords(scan), 0); err != nil {
				b.Fatal(err) // warm-up allocates the lazy machine
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				outB, err := r.RunAppendBytes(nil, emu, moProg, in, dynprog.MOMemWords(scan), 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(outB) < emblem.HeaderSize || !bytes.Equal(outB[emblem.HeaderSize:], payload) {
					b.Fatal("nested decode mismatch")
				}
			}
		})
	})
}

// ---- P5: archive hot path ------------------------------------------------

// BenchmarkP5ArchiveEncode measures the archive-side hot path: end-to-end
// CreateArchive with allocation reporting and ms/frame (raw and
// compressed, serial and default worker counts), the per-frame emblem
// encode through fresh vs reused scratch (the direct measure of what the
// per-worker encScratch saves), the place stage's media-writer cost, and
// the DBCoder depth dial behind Options.CompressDepth. The counterpart of
// P4 for the write-heavy direction archival systems are built around.
func BenchmarkP5ArchiveEncode(b *testing.B) {
	run := func(b *testing.B, data []byte, opts microlonys.Options) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		frames := 0
		for i := 0; i < b.N; i++ {
			arch, err := microlonys.Archive(data, opts)
			if err != nil {
				b.Fatal(err)
			}
			frames = arch.Manifest.TotalFrames
		}
		b.ReportMetric(float64(frames), "frames")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(frames)/1e6, "ms/frame")
	}

	// End-to-end archival, frame encode dominated (as in E1/E2/E3).
	b.Run("raw", func(b *testing.B) {
		data := tpchDump()[:256*1024]
		for _, w := range []int{1, 0} {
			b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
				opts := microlonys.DefaultOptions(benchProfile())
				opts.Compress = false
				opts.Workers = w
				run(b, data, opts)
			})
		}
	})

	// End-to-end archival with DBCoder in front (the serial split stage
	// bounds the worker scaling; E6 prices that stage in isolation).
	b.Run("compressed", func(b *testing.B) {
		data := tpchDump()[:128*1024]
		for _, w := range []int{1, 0} {
			b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
				opts := microlonys.DefaultOptions(benchProfile())
				opts.Workers = w
				run(b, data, opts)
			})
		}
	})

	// The Options.CompressDepth dial: archive speed vs stream density.
	b.Run("depth", func(b *testing.B) {
		data := tpchDump()[:256*1024]
		for _, depth := range []int{16, 64, 256} {
			b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				var streamLen int
				for i := 0; i < b.N; i++ {
					blob := dbcoder.CompressDepth(data, depth)
					streamLen = len(blob)
				}
				b.ReportMetric(float64(len(data))/float64(streamLen), "ratio")
			})
		}
	})

	// Per-frame encode cost in isolation, one iteration = one frame:
	// fresh scratch vs a reused Encoder, the archive counterpart of P4's
	// frame-reuse arm.
	b.Run("frame-reuse", func(b *testing.B) {
		l := benchProfile().Layout
		payload := make([]byte, mocoder.Capacity(l))
		rand.New(rand.NewSource(6)).Read(payload)
		hdr := emblem.Header{Kind: emblem.KindRaw}
		b.Run("fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mocoder.Encode(payload, hdr, l); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("reused", func(b *testing.B) {
			b.ReportAllocs()
			var e mocoder.Encoder
			if _, err := e.Encode(payload, hdr, l); err != nil {
				b.Fatal(err) // warm-up sizes the scratch once
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Encode(payload, hdr, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	// The place stage: writer-side quantisation and storage of encoded
	// frames (the built-in profiles' writers are distortion-free, so this
	// rides the IsZero fast path).
	b.Run("place", func(b *testing.B) {
		prof := benchProfile()
		prof.WriteBitonal = true
		l := prof.Layout
		payload := make([]byte, mocoder.Capacity(l))
		rand.New(rand.NewSource(7)).Read(payload)
		var e mocoder.Encoder
		frames := make([]*raster.Gray, 8)
		for i := range frames {
			img, err := e.Encode(payload, emblem.Header{Kind: emblem.KindRaw, Index: uint16(i)}, l)
			if err != nil {
				b.Fatal(err)
			}
			frames[i] = img
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(frames) * l.ImageW() * l.ImageH()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := media.New(prof)
			if err := m.Write(frames); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- P6: multi-volume streaming archives -------------------------------

// BenchmarkP6Volume measures the multi-volume streaming pipeline at the
// public API (BENCH_volume.json records the committed baseline): the
// sheet sweep (the same archive cut across one, two and three carriers,
// archive + restore), the sheet-loss scenario (destroy one of three
// carriers, Partial-restore the survivors), and RestoreTo-vs-
// RestoreVolume on a 3-sheet archive — both public ends stream
// group-incrementally, so they should differ only by the output buffer.
// The streaming-vs-seed-buffered peak comparison lives next to the seed
// reference formulations: BenchmarkP6ArchivePeak and
// BenchmarkP6ReassemblePeak in internal/core.
func BenchmarkP6Volume(b *testing.B) {
	prof := benchProfile()
	capacity := prof.FrameCapacity()
	newOpts := func(sheetFrames int) microlonys.Options {
		opts := microlonys.DefaultOptions(prof)
		opts.Compress = false // raw keeps the frame count exact and streams end to end
		opts.SheetFrames = sheetFrames
		return opts
	}
	// 40 capacity-sized chunks = 3 outer-code groups = 49 frames: one
	// unbounded sheet, three sheets of 20 frames, or two of 40.
	data := tpchDump()[:40*capacity]

	archive := func(b *testing.B, sheetFrames int) *microlonys.Archived {
		b.Helper()
		arch, err := microlonys.ArchiveReader(bytes.NewReader(data), newOpts(sheetFrames))
		if err != nil {
			b.Fatal(err)
		}
		return arch
	}

	// The same archive across more, smaller carriers: the frame stream is
	// identical work, so the sweep prices the sheet bookkeeping itself.
	b.Run("sheets", func(b *testing.B) {
		for _, sf := range []int{0, 20, 40} {
			b.Run(fmt.Sprintf("sheetFrames=%d", sf), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(data)))
				var sheets int
				for i := 0; i < b.N; i++ {
					arch := archive(b, sf)
					sheets = arch.Volume.Sheets()
					out, _, err := microlonys.RestoreVolume(arch.Volume, arch.BootstrapText,
						microlonys.RestoreOptions{Mode: microlonys.RestoreNative})
					if err != nil {
						b.Fatal(err)
					}
					if !bytes.Equal(out, data) {
						b.Fatal("round trip differs")
					}
				}
				b.ReportMetric(float64(sheets), "sheets")
			})
		}
	})

	// Carrier loss: one of three sheets destroyed, survivors restored in
	// Partial mode with per-group accounting.
	b.Run("sheetloss", func(b *testing.B) {
		b.ReportAllocs()
		var lostGroups, lostBytes int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			arch := archive(b, 20)
			if err := arch.Volume.DestroySheet(1); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			st, err := microlonys.RestoreTo(io.Discard, arch.Volume, arch.BootstrapText,
				microlonys.RestoreOptions{Mode: microlonys.RestoreNative, Partial: true})
			if err != nil {
				b.Fatal(err)
			}
			lostGroups, lostBytes = st.GroupsLost, st.BytesLost
		}
		b.ReportMetric(float64(lostGroups), "groups-lost")
		b.ReportMetric(float64(lostBytes), "B-lost")
	})

	// RestoreTo (streamed to io.Discard) vs RestoreVolume (buffered output)
	// on the 3-sheet archive: same group-incremental decoding, so the
	// allocation totals isolate what the output buffer costs.
	b.Run("restore", func(b *testing.B) {
		arch := archive(b, 20)
		b.Run("streaming", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := microlonys.RestoreTo(io.Discard, arch.Volume, arch.BootstrapText,
					microlonys.RestoreOptions{Mode: microlonys.RestoreNative, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("buffered", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				out, _, err := microlonys.RestoreVolume(arch.Volume, arch.BootstrapText,
					microlonys.RestoreOptions{Mode: microlonys.RestoreNative, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != len(data) {
					b.Fatal("short restore")
				}
			}
		})
	})
}

// ---- P7: restore scan hot path -------------------------------------------

// BenchmarkP7RestoreScan measures the native restore scan leg this repo's
// scan-path work targets (BENCH_scan.json records the committed
// baseline): the end-to-end serial native restore of a 256 KB raw archive
// (the read-side counterpart of P5/raw/workers=1 — scan + demodulate +
// inner RS dominate), the per-frame emblem decode through fresh vs reused
// scratch (the direct measure of what the per-worker scanScratch saves),
// the Reed-Solomon decode on clean, damaged and erased words (clean is
// the dominant undamaged case the syndrome tables exist for), and the
// outer-code group recovery (the once-per-group erasure solve).
func BenchmarkP7RestoreScan(b *testing.B) {
	// End-to-end serial restore, in two scanner regimes: the bench
	// profile's full distortion model (rotation, blur, noise, dust — the
	// scanner simulation is roughly half the work and is identity-bound),
	// and a pristine scan-back (the archival-writer best case), which
	// isolates the decode leg this PR rebuilds.
	serial := func(b *testing.B, prof media.Profile) {
		data := tpchDump()[:256*1024]
		opts := microlonys.DefaultOptions(prof)
		opts.Compress = false
		arch, err := microlonys.Archive(data, opts)
		if err != nil {
			b.Fatal(err)
		}
		frames := arch.Manifest.TotalFrames
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, _, err := microlonys.RestoreWith(arch.Medium, arch.BootstrapText,
				microlonys.RestoreOptions{Mode: microlonys.RestoreNative, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				b.Fatal("restore mismatch")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(frames)/1e6, "ms/frame")
	}
	b.Run("serial-native/distorted", func(b *testing.B) { serial(b, benchProfile()) })
	b.Run("serial-native/clean", func(b *testing.B) {
		prof := benchProfile()
		prof.Scanner = media.Distortions{}
		serial(b, prof)
	})

	// Per-frame emblem decode on a clean rendered frame, one iteration =
	// one frame: fresh scratch vs a reused DecodeScratch.
	b.Run("frame-decode", func(b *testing.B) {
		l := benchProfile().Layout
		payload := make([]byte, mocoder.Capacity(l))
		rand.New(rand.NewSource(11)).Read(payload)
		img, err := mocoder.Encode(payload, emblem.Header{Kind: emblem.KindRaw}, l)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := mocoder.Decode(img, l); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("reused", func(b *testing.B) {
			b.ReportAllocs()
			var s mocoder.DecodeScratch
			if _, _, _, err := mocoder.DecodeWith(&s, img, l); err != nil {
				b.Fatal(err) // warm-up sizes the scratch once
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := mocoder.DecodeWith(&s, img, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	// The inner RS(255,223) decode: the clean word every undamaged block
	// hits, and a 16-error word at the correction limit.
	b.Run("rs-decode", func(b *testing.B) {
		c := rs.New(rs.InnerParity)
		rng := rand.New(rand.NewSource(12))
		data := make([]byte, rs.InnerData)
		rng.Read(data)
		clean := c.EncodeFull(data)
		damaged := append([]byte(nil), clean...)
		for _, p := range rng.Perm(len(damaged))[:16] {
			damaged[p] ^= 0xA5
		}
		buf := make([]byte, len(clean))
		b.Run("clean", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(rs.InnerData)
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(clean, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("damaged", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(rs.InnerData)
			for i := 0; i < b.N; i++ {
				copy(buf, damaged)
				if _, err := c.Decode(buf, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Hoisted out of the sub-benchmark so the workload is identical
		// across calibration rounds (the closure reruns with growing b.N
		// and must not re-draw from the shared rng).
		eras := rng.Perm(len(clean))[:rs.InnerParity]
		erased := append([]byte(nil), clean...)
		for _, p := range eras {
			erased[p] = 0
		}
		b.Run("erasures", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(rs.InnerData)
			for i := 0; i < b.N; i++ {
				copy(buf, erased)
				if _, err := c.Decode(buf, eras); err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	// Outer-code group recovery: 3 of 20 emblem payloads missing, at the
	// bench profile's frame capacity.
	b.Run("group-recover", func(b *testing.B) {
		capacity := benchProfile().FrameCapacity()
		rng := rand.New(rand.NewSource(13))
		data := make([][]byte, mocoder.GroupData)
		for i := range data {
			data[i] = make([]byte, capacity)
			rng.Read(data[i])
		}
		parity, err := mocoder.GroupParityPayloads(data)
		if err != nil {
			b.Fatal(err)
		}
		group := append(append([][]byte(nil), data...), parity...)
		broken := make([][]byte, len(group))
		b.ReportAllocs()
		b.SetBytes(int64(mocoder.GroupData * capacity))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(broken, group)
			broken[1], broken[8], broken[19] = nil, nil, nil
			if err := mocoder.RecoverGroup(broken); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- P9: indexed selective restore ------------------------------------

// BenchmarkP9Range prices the selective-restore index (BENCH_range.json
// records the committed numbers): one TPC-H table and one 4 KB range
// restored from a ~100-sheet indexed volume against the full restore of
// the same volume. Each query probes one index emblem, decodes only the
// data frames its restart blocks occupy, and must touch fewer than 5% of
// the volume's frames without falling back to a full restore — asserted
// here, so the CI bench smoke is also the regression gate for the
// headline ratio.
func BenchmarkP9Range(b *testing.B) {
	// A mid-size frame: large enough that the index emblem carries a
	// fine-grained restart-block table next to the full section table,
	// small enough that a ~100-sheet volume archives in seconds.
	l := emblem.Layout{DataW: 160, DataH: 120, PxPerModule: 3}
	prof := media.Profile{
		Name:   "p9-bench",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
		Scanner: media.Distortions{
			RotationDeg: 0.1, BlurRadius: 1, Noise: 2, DustSpecks: 2,
		},
	}
	capacity := prof.FrameCapacity()
	// Enough stream chunks for ~100 one-group sheets after compression
	// (~50 in -short smoke runs, same ratio assertion).
	sheets := 100
	if testing.Short() {
		sheets = 50
	}
	opts := microlonys.DefaultOptions(prof)
	opts.CompressDepth = 1
	opts.SheetFrames = 22 // 17+3 group + catalog + index slots
	opts.Catalog = true
	opts.Index = true
	_, db := tpch.FitScaleFactor(sheets*17*capacity*13/2, 7, sqldump.Dump)
	data := sqldump.Dump(db)
	arch, err := microlonys.ArchiveReader(bytes.NewReader(data), opts)
	if err != nil {
		b.Fatal(err)
	}
	secs, err := sqldump.Sections(data)
	if err != nil {
		b.Fatal(err)
	}
	want := data[secs[1].Off : secs[1].Off+secs[1].Len] // nation: small and fixed-size
	total := arch.Volume.FrameCount()
	b.Logf("volume: %d sheets, %d frames, %d B raw -> %d B stream; table %q = %d B",
		arch.Volume.Sheets(), total, arch.Manifest.RawLen, arch.Manifest.StreamLen,
		secs[1].Table, len(want))

	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(want)))
		var st *microlonys.RestoreStats
		for i := 0; i < b.N; i++ {
			got, s, err := microlonys.RestoreTable(arch.Volume, arch.BootstrapText, secs[1].Table,
				microlonys.RestoreOptions{Mode: microlonys.RestoreNative})
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				b.Fatal("table restore differs from input extent")
			}
			st = s
		}
		if st.IndexFallbacks != 0 {
			b.Fatalf("table query fell back to a full restore: %+v", st)
		}
		ratio := 100 * float64(st.FramesScanned) / float64(total)
		if ratio >= 5 {
			b.Fatalf("table query touched %.1f%% of frames (%d of %d), want <5%%",
				ratio, st.FramesScanned, total)
		}
		b.ReportMetric(float64(st.FramesScanned), "frames-scanned")
		b.ReportMetric(float64(st.FramesSkipped), "frames-skipped")
		b.ReportMetric(ratio, "frames-touched-%")
	})

	b.Run("range", func(b *testing.B) {
		b.ReportAllocs()
		off, n := len(data)/2, 4096
		b.SetBytes(int64(n))
		var st *microlonys.RestoreStats
		for i := 0; i < b.N; i++ {
			got, s, err := microlonys.RestoreRange(arch.Volume, arch.BootstrapText, off, n,
				microlonys.RestoreOptions{Mode: microlonys.RestoreNative})
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(got, data[off:off+n]) {
				b.Fatal("range restore differs from input slice")
			}
			st = s
		}
		if st.IndexFallbacks != 0 {
			b.Fatalf("range query fell back to a full restore: %+v", st)
		}
		ratio := 100 * float64(st.FramesScanned) / float64(total)
		if ratio >= 5 {
			b.Fatalf("range query touched %.1f%% of frames (%d of %d), want <5%%",
				ratio, st.FramesScanned, total)
		}
		b.ReportMetric(float64(st.FramesScanned), "frames-scanned")
		b.ReportMetric(float64(st.FramesSkipped), "frames-skipped")
		b.ReportMetric(ratio, "frames-touched-%")
	})

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			got, _, err := microlonys.RestoreVolume(arch.Volume, arch.BootstrapText,
				microlonys.RestoreOptions{Mode: microlonys.RestoreNative})
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				b.Fatal("full restore differs from input")
			}
		}
	})
}

// ---- E11: DNA archival channel (§5 future work) -------------------------------

// BenchmarkE11DNAArchival runs the DBCoder-compressed TPC-H archive
// through the synthetic-DNA substrate (§5: "extending Micr'Olonys to be
// used in conjunction with a DNA-based database archive") across
// sequencing-coverage levels, reporting restore success and the net
// information density behind the paper's 1 EB/mm³ contrast.
func BenchmarkE11DNAArchival(b *testing.B) {
	blob := dbcoder.Compress(tpchDump())[:48*1024] // bounded slice of the real stream
	oligos := dnasim.Encode(blob)
	b.Logf("payload %d B -> %d oligos of %d nt", len(blob), len(oligos), dnasim.OligoLen())

	for _, cov := range []float64{2, 5, 10} {
		b.Run(fmt.Sprintf("coverage=%gx", cov), func(b *testing.B) {
			success, trials := 0, 0
			var corrected int
			for i := 0; i < b.N; i++ {
				ch := dnasim.Channel{
					Coverage: cov, SubRate: 0.005, DropRate: 0.01,
					Seed: int64(i) + 1,
				}
				got, st, err := dnasim.Decode(ch.Sequence(oligos))
				trials++
				if err == nil && bytes.Equal(got, blob) {
					success++
					corrected += st.BytesCorrected
				}
			}
			b.ReportMetric(float64(success)/float64(trials), "success")
			b.ReportMetric(float64(corrected)/float64(trials), "corrected_B")
			b.ReportMetric(dnasim.Density(len(blob)), "bits/nt")
		})
	}
}

// BenchmarkE5OuterCode destroys k whole frames of a single 20-frame
// group (17 data + 3 parity) and restores. §3.1: "full bit-for-bit
// restoration of data contained within a series of 20 emblems in which
// any three are missing altogether" — success must hold through k=3 and
// vanish at k=4.
func BenchmarkE5OuterCode(b *testing.B) {
	profile := benchProfile()
	capacity := profile.FrameCapacity()
	data := make([]byte, capacity*17) // exactly one full group
	rand.New(rand.NewSource(5)).Read(data)
	opts := microlonys.DefaultOptions(profile)
	opts.Compress = false

	for _, k := range []int{0, 1, 2, 3, 4} {
		b.Run(fmt.Sprintf("destroyed=%d", k), func(b *testing.B) {
			success, trials := 0, 0
			for i := 0; i < b.N; i++ {
				arch, err := microlonys.Archive(data, opts)
				if err != nil {
					b.Fatal(err)
				}
				if arch.Manifest.TotalFrames != 20 {
					b.Fatalf("frames = %d, want one 20-frame group", arch.Manifest.TotalFrames)
				}
				rng := rand.New(rand.NewSource(int64(i) + 1))
				for _, f := range rng.Perm(20)[:k] {
					arch.Medium.Destroy(f)
				}
				got, _, err := microlonys.Restore(arch.Medium, arch.BootstrapText, microlonys.RestoreNative)
				trials++
				if err == nil && bytes.Equal(got, data) {
					success++
				}
			}
			b.ReportMetric(float64(success)/float64(trials), "success")
		})
	}
}
