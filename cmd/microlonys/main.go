// Command microlonys archives a file to simulated analog media and
// restores it back — the end-to-end ULE pipeline from the command line.
//
// Usage:
//
//	microlonys -in dump.sql [-profile paper|microfilm|cinema|tiny]
//	           [-mode native|dynarisc|nested] [-raw] [-depth N]
//	           [-sheet-frames N] [-catalog] [-index]
//	           [-range OFF:LEN] [-table NAME] [-list-tables]
//	           [-destroy N] [-destroy-sheet S]
//	           [-partial] [-salvage] [-shuffle] [-withhold-sheet S]
//	           [-dup-sheet S] [-workers N]
//	           [-frames out/] [-sheets out/]
//	           [-out file] [-bootstrap bootstrap.txt]
//
// The tool archives the input (`-in -` streams stdin), optionally
// destroys N random frames and/or a whole sheet, restores through the
// selected mode and verifies bit-exactness, printing the manifest,
// per-sheet statistics and capacity figures along the way. With
// `-sheet-frames N` the archive is sharded across media sheets of N
// frames each — an outer-code group never straddles a sheet — and
// `-sheets dir` writes each sheet's frame scans to its own subdirectory.
// `-out file` streams the restored archive to a file (`-` for stdout);
// `-partial` keeps restoring past lost carriers, zero-filling and
// reporting what the outer code could not bring back.
//
// `-index` reserves one frame per sheet for a selective-restore index
// emblem mapping archive bytes to volume extents; `-range OFF:LEN`,
// `-table NAME` and `-list-tables` then answer random-access queries by
// scanning only the frames the query touches — the tool prints how many
// frames were skipped and verifies the bytes against the corresponding
// slice of the input.
//
// `-catalog` reserves one frame per sheet for a self-describing catalog
// emblem (archive identity, sheet inventory, per-group checksums, a
// compressed Bootstrap replica when it fits). `-salvage` then restores
// through the disaster path: the sheets are handed over as an unordered
// bag with NO bootstrap text — optionally shuffled (`-shuffle`), with a
// sheet withheld (`-withhold-sheet S`) or duplicated (`-dup-sheet S`) —
// and the salvage engine identifies, orders and dedupes them from the
// catalog frames (or a frame-header vote) before the best-effort
// restore. The SalvageReport ledger is printed in full.
//
// Exit codes: 0 — restored clean (bit-exact where verifiable);
// 2 — restored with losses (partial/salvage restores that zero-filled
// bytes the outer code could not bring back); 1 — failure (bad
// arguments, I/O errors, unrecoverable restores, or a restore whose
// bytes differ from the input). Malformed flags exit 2 via package flag.
// The regression suite in exitcode_test.go pins all three.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"microlonys"
	"microlonys/media"
)

func main() {
	in := flag.String("in", "", "input file to archive (required; - reads stdin)")
	profile := flag.String("profile", "paper", "media profile: "+media.ProfileNames+" (tiny: fast dev medium)")
	mode := flag.String("mode", "native", "restore mode: native, dynarisc, nested")
	raw := flag.Bool("raw", false, "archive without DBCoder compression")
	depth := flag.Int("depth", 0, "DBCoder match-finder depth: lower is faster, higher packs denser (0 = default)")
	sheetFrames := flag.Int("sheet-frames", 0, "frames per media sheet; 0 = one unbounded sheet")
	catalog := flag.Bool("catalog", false, "reserve one frame per sheet for a self-describing catalog emblem")
	index := flag.Bool("index", false, "reserve one frame per sheet for a selective-restore index emblem")
	rangeQ := flag.String("range", "", "restore only bytes OFF:LEN through the index (implies -index)")
	tableQ := flag.String("table", "", "restore only this SQL table through the index (implies -index)")
	listTables := flag.Bool("list-tables", false, "print the index's named sections and exit (implies -index)")
	destroy := flag.Int("destroy", 0, "destroy N random frames before restoring")
	destroySheet := flag.Int("destroy-sheet", -1, "destroy this entire sheet before restoring (carrier loss)")
	partial := flag.Bool("partial", false, "keep restoring past lost carriers (zero-fill + report)")
	salvage := flag.Bool("salvage", false, "restore through the salvage path: unordered sheet bag, no bootstrap text")
	shuffle := flag.Bool("shuffle", false, "shuffle the salvage sheet bag (requires -salvage)")
	withholdSheet := flag.Int("withhold-sheet", -1, "withhold this sheet from the salvage bag (requires -salvage)")
	dupSheet := flag.Int("dup-sheet", -1, "present this sheet twice in the salvage bag (requires -salvage)")
	framesDir := flag.String("frames", "", "write frame PNGs to this directory")
	sheetsDir := flag.String("sheets", "", "write per-sheet frame PNGs to sheetNN/ under this directory")
	outPath := flag.String("out", "", "stream the restored archive to this file (- for stdout)")
	bootOut := flag.String("bootstrap", "", "write the Bootstrap document to this file")
	seed := flag.Int64("seed", 1, "seed for frame destruction")
	workers := flag.Int("workers", 0, "frame pipeline workers (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		fatal("missing -in")
	}

	prof, err := media.ProfileByName(*profile)
	if err != nil {
		fatal("%v", err)
	}

	var m microlonys.Mode
	switch *mode {
	case "native":
		m = microlonys.RestoreNative
	case "dynarisc":
		m = microlonys.RestoreDynaRisc
	case "nested":
		m = microlonys.RestoreNested
	default:
		fatal("unknown mode %q", *mode)
	}

	if *salvage && !*catalog {
		// The salvage path works without catalogs (header-vote fallback),
		// but the CLI pairs them so the demo exercises the full engine.
		fmt.Println("note: -salvage implies -catalog (self-describing sheets)")
		*catalog = true
	}
	selective := *rangeQ != "" || *tableQ != "" || *listTables
	if selective && !*index {
		fmt.Println("note: selective query implies -index (indexed volume)")
		*index = true
	}
	opts := microlonys.DefaultOptions(prof)
	opts.Compress = !*raw
	opts.CompressDepth = *depth
	opts.Workers = *workers
	opts.SheetFrames = *sheetFrames
	opts.Catalog = *catalog
	opts.Index = *index

	// The original bytes are kept only to verify bit-exactness after the
	// round trip; stdin streams through the pipeline unverified.
	var source io.Reader
	var data []byte
	if *in == "-" {
		source = os.Stdin
		fmt.Printf("archiving stdin to %s...\n", prof.Name)
	} else {
		var err error
		data, err = os.ReadFile(*in)
		check(err)
		source = bytes.NewReader(data)
		fmt.Printf("archiving %s (%d bytes) to %s...\n", *in, len(data), prof.Name)
	}

	t0 := time.Now()
	arch, err := microlonys.ArchiveReader(source, opts)
	check(err)
	encodeTime := time.Since(t0)

	man := arch.Manifest
	fmt.Printf("  raw %d B -> stream %d B (ratio %.2fx)\n", man.RawLen, man.StreamLen,
		float64(man.RawLen)/float64(max(man.StreamLen, 1)))
	fmt.Printf("  %d data + %d system + %d parity emblems (%d frames, %d groups, %d sheets)\n",
		man.DataEmblems, man.SystemEmblems, man.ParityEmblems, man.TotalFrames, man.Groups, man.Sheets)
	fmt.Printf("  frame capacity %d B; encode time %v\n", prof.FrameCapacity(), encodeTime)

	if *bootOut != "" {
		check(os.WriteFile(*bootOut, []byte(arch.BootstrapText), 0o644))
		fmt.Printf("  bootstrap -> %s (%d bytes)\n", *bootOut, len(arch.BootstrapText))
	}
	if *framesDir != "" {
		check(os.MkdirAll(*framesDir, 0o755))
		for i := 0; i < arch.Volume.FrameCount(); i++ {
			img, err := arch.Volume.ScanFrame(i)
			check(err)
			writePNG(filepath.Join(*framesDir, fmt.Sprintf("frame%03d.png", i)), img)
		}
		fmt.Printf("  %d frame scans -> %s/\n", arch.Volume.FrameCount(), *framesDir)
	}
	if *sheetsDir != "" {
		for s := 0; s < arch.Volume.Sheets(); s++ {
			sheet, err := arch.Volume.Sheet(s)
			check(err)
			dir := filepath.Join(*sheetsDir, fmt.Sprintf("sheet%02d", s))
			check(os.MkdirAll(dir, 0o755))
			for i := 0; i < sheet.FrameCount(); i++ {
				img, err := sheet.ScanFrame(i)
				check(err)
				writePNG(filepath.Join(dir, fmt.Sprintf("frame%03d.png", i)), img)
			}
		}
		fmt.Printf("  %d sheets -> %s/sheetNN/\n", arch.Volume.Sheets(), *sheetsDir)
	}

	if *destroySheet >= 0 {
		check(arch.Volume.DestroySheet(*destroySheet))
		fmt.Printf("  destroyed sheet %d entirely (simulated carrier loss)\n", *destroySheet)
	}
	if *destroy > 0 {
		rng := rand.New(rand.NewSource(*seed))
		for i := 0; i < *destroy; i++ {
			idx := rng.Intn(arch.Volume.FrameCount())
			s, j, err := arch.Volume.Locate(idx)
			check(err)
			check(arch.Volume.Destroy(s, j))
			fmt.Printf("  destroyed frame %d (sheet %d #%d)\n", idx, s, j)
		}
	}

	if selective {
		runSelective(arch, m, *workers, *partial, *rangeQ, *tableQ, *listTables, *outPath, data)
		return
	}

	// Restore: stream to -out when given, otherwise into memory for the
	// bit-exactness check. -salvage swaps in the disaster path: the
	// sheets go over as an unordered bag with no bootstrap text.
	var got []byte
	var st *microlonys.RestoreStats
	t0 = time.Now()
	if *salvage {
		bag := salvageBag(arch.Volume, *withholdSheet, *dupSheet, *shuffle, *seed)
		so := microlonys.SalvageOptions{Mode: m, Workers: *workers}
		fmt.Printf("salvaging %d sheets (mode %s, no bootstrap text)...\n", len(bag), m)
		var rep *microlonys.SalvageReport
		switch {
		case *outPath == "-":
			rep, err = microlonys.SalvageTo(os.Stdout, bag, so)
			check(err)
		case *outPath != "":
			f, ferr := os.Create(*outPath)
			check(ferr)
			rep, err = microlonys.SalvageTo(f, bag, so)
			check(err)
			check(f.Close())
			fmt.Printf("  salvaged archive -> %s\n", *outPath)
		default:
			got, rep, err = microlonys.Salvage(bag, so)
			check(err)
		}
		printSalvageReport(rep)
		st = &rep.Stats
	} else {
		fmt.Printf("restoring (mode %s)...\n", m)
		ro := microlonys.RestoreOptions{Mode: m, Workers: *workers, Partial: *partial}
		switch {
		case *outPath == "-":
			st, err = microlonys.RestoreTo(os.Stdout, arch.Volume, arch.BootstrapText, ro)
			check(err)
		case *outPath != "":
			f, ferr := os.Create(*outPath)
			check(ferr)
			st, err = microlonys.RestoreTo(f, arch.Volume, arch.BootstrapText, ro)
			check(err)
			check(f.Close())
			fmt.Printf("  restored archive -> %s\n", *outPath)
		default:
			got, st, err = microlonys.RestoreVolume(arch.Volume, arch.BootstrapText, ro)
			check(err)
		}
	}
	fmt.Printf("  %d frames scanned, %d failed, %d groups recovered, %d bytes corrected\n",
		st.FramesScanned, st.FramesFailed, st.GroupsRecovered, st.BytesCorrected)
	if st.GroupsLost > 0 || st.FramesLost > 0 {
		fmt.Printf("  LOST: %d groups, %d unidentifiable frames, %d bytes zero-filled\n",
			st.GroupsLost, st.FramesLost, st.BytesLost)
	}
	for s, sh := range st.Sheets {
		if sh.FramesFailed > 0 || sh.GroupsRecovered > 0 || sh.GroupsLost > 0 {
			fmt.Printf("  sheet %d: %d frames, %d failed, %d lost; %d groups, %d recovered, %d lost\n",
				s, sh.Frames, sh.FramesFailed, sh.FramesLost, sh.Groups, sh.GroupsRecovered, sh.GroupsLost)
		}
	}
	fmt.Printf("  decode time %v\n", time.Since(t0))

	switch {
	case got == nil:
		fmt.Println("restored (streaming; no in-memory copy to verify)")
		if st.BytesLost > 0 {
			os.Exit(2)
		}
	case data == nil:
		fmt.Println("restored (stdin input; nothing to verify against)")
		if st.BytesLost > 0 {
			os.Exit(2)
		}
	case bytes.Equal(got, data):
		fmt.Println("RESTORED BIT-EXACT")
	case (*partial || *salvage) && st.BytesLost > 0:
		fmt.Printf("restored with losses (%d of %d bytes zero-filled)\n", st.BytesLost, len(data))
		os.Exit(2)
	default:
		fatal("restored data differs from input")
	}
}

// runSelective answers a `-range`, `-table` or `-list-tables` query
// through the volume's selective-restore index, printing how much of the
// volume the query touched and verifying the bytes against the input.
func runSelective(arch *microlonys.Archived, m microlonys.Mode, workers int, partial bool, rangeQ, tableQ string, listTables bool, outPath string, data []byte) {
	ro := microlonys.RestoreOptions{Mode: m, Workers: workers, Partial: partial}

	if listTables {
		x, st, err := microlonys.ListIndex(arch.Volume, arch.BootstrapText, ro)
		check(err)
		fmt.Printf("index: archive %016x, raw %d B, stream %d B, %d restart blocks\n",
			x.ArchiveID, x.RawLen, x.StreamLen, len(x.Blocks))
		for _, sec := range x.Sections {
			kind := "table "
			if sec.Kind == microlonys.SectionColumn {
				kind = "column"
			}
			fmt.Printf("  %s %-24s off %10d  len %10d\n", kind, sec.Name, sec.Off, sec.Len)
		}
		fmt.Printf("  (%d frames scanned, %d skipped)\n", st.FramesScanned, st.FramesSkipped)
		return
	}

	var got []byte
	var st *microlonys.RestoreStats
	var err error
	var want []byte // expected bytes, when verifiable
	if rangeQ != "" {
		var off, length int
		if _, perr := fmt.Sscanf(rangeQ, "%d:%d", &off, &length); perr != nil {
			fatal("bad -range %q (want OFF:LEN)", rangeQ)
		}
		fmt.Printf("restoring range %d:%d (mode %s)...\n", off, length, m)
		got, st, err = microlonys.RestoreRange(arch.Volume, arch.BootstrapText, off, length, ro)
		check(err)
		if data != nil && off+length <= len(data) {
			want = data[off : off+length]
		}
	} else {
		fmt.Printf("restoring table %q (mode %s)...\n", tableQ, m)
		got, st, err = microlonys.RestoreTable(arch.Volume, arch.BootstrapText, tableQ, ro)
		check(err)
	}

	total := arch.Volume.FrameCount()
	fmt.Printf("  %d bytes restored; %d of %d frames scanned (%.1f%%), %d skipped, %d groups decoded\n",
		len(got), st.FramesScanned, total, 100*float64(st.FramesScanned)/float64(max(total, 1)),
		st.FramesSkipped, st.GroupsDecoded)
	if st.IndexFallbacks > 0 {
		fmt.Printf("  fell back to a full restore (%d fallback(s): no usable index)\n", st.IndexFallbacks)
	}

	switch {
	case outPath == "-":
		_, werr := os.Stdout.Write(got)
		check(werr)
	case outPath != "":
		check(os.WriteFile(outPath, got, 0o644))
		fmt.Printf("  restored bytes -> %s\n", outPath)
	}

	switch {
	case data == nil:
		fmt.Println("restored (stdin input; nothing to verify against)")
	case want != nil && bytes.Equal(got, want):
		fmt.Println("RESTORED BIT-EXACT")
	case want == nil && len(got) > 0 && bytes.Contains(data, got):
		// Table queries: the restored region must be a contiguous slice of
		// the input.
		fmt.Println("RESTORED BIT-EXACT")
	case want == nil && len(got) == 0:
		fmt.Println("restored empty section")
	default:
		fatal("restored bytes differ from input")
	}
}

// salvageBag pulls the volume's sheets into the bag the salvage engine
// receives: optionally one sheet withheld, one presented twice, and the
// whole bag shuffled (seeded, so runs reproduce).
func salvageBag(vol *media.Volume, withhold, dup int, shuffle bool, seed int64) []*media.Medium {
	var bag []*media.Medium
	for s := 0; s < vol.Sheets(); s++ {
		sheet, err := vol.Sheet(s)
		check(err)
		if s == withhold {
			fmt.Printf("  withheld sheet %d from the bag\n", s)
			continue
		}
		bag = append(bag, sheet)
		if s == dup {
			fmt.Printf("  presented sheet %d twice\n", s)
			bag = append(bag, sheet.Clone())
		}
	}
	if shuffle {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(bag), func(i, j int) { bag[i], bag[j] = bag[j], bag[i] })
		fmt.Printf("  shuffled the bag (%d sheets)\n", len(bag))
	}
	return bag
}

// printSalvageReport renders the salvage ledger: what the engine
// identified, how, and what it could not bring back.
func printSalvageReport(rep *microlonys.SalvageReport) {
	fmt.Printf("  salvage ledger:\n")
	fmt.Printf("    archive id %016x; %d of %d sheets identified (%d presented)\n",
		rep.ArchiveID, len(rep.SheetsIdentified), rep.SheetCount, rep.SheetsPresented)
	switch {
	case rep.CatalogUsed:
		fmt.Printf("    identity from %d catalog frames", rep.CatalogFrames)
		if rep.BootstrapFromCatalog {
			fmt.Printf(" (bootstrap replayed from the catalog replica)")
		}
		fmt.Println()
	default:
		fmt.Printf("    identity from frame-header vote (no catalog survived)\n")
	}
	if rep.SheetsDuplicate > 0 {
		fmt.Printf("    deduped %d redundant sheet cop(ies)\n", rep.SheetsDuplicate)
	}
	if rep.SheetsUnidentified > 0 {
		fmt.Printf("    %d sheet(s) unidentifiable\n", rep.SheetsUnidentified)
	}
	if len(rep.SheetsMissing) > 0 {
		fmt.Printf("    MISSING sheets %v (inventoried by the catalog)\n", rep.SheetsMissing)
	}
	if rep.Complete {
		fmt.Printf("    complete: every group recovered and verified\n")
	}
}

func writePNG(path string, img interface{ EncodePNG(w io.Writer) error }) {
	f, err := os.Create(path)
	check(err)
	check(img.EncodePNG(f))
	check(f.Close())
}

func check(err error) {
	if err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "microlonys: "+format+"\n", args...)
	os.Exit(1)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
