// Package microlonys is an end-to-end, long-term database archival system
// implementing Universal Layout Emulation (ULE), reproducing "Universal
// Layout Emulation for Long-Term Database Archival" (Appuswamy & Joguin,
// CIDR 2021).
//
// ULE archives data together with the layout decoders needed to read it
// back: the database archive is compressed by DBCoder, laid out on visual
// analog media as emblems by MOCoder, and accompanied by (a) system
// emblems holding the DBCoder decoder as a DynaRisc instruction stream and
// (b) a short plain-text Bootstrap document containing the MOCoder decoder
// and a DynaRisc emulator written for the four-instruction VeRisc machine.
// A future user implements VeRisc from the document's pseudocode — a few
// hundred lines on any platform — and the archive restores itself.
//
//	opts := microlonys.DefaultOptions(media.Paper())
//	arch, err := microlonys.Archive(sqlDump, opts)
//	...
//	data, stats, err := microlonys.Restore(arch.Medium, arch.BootstrapText,
//		microlonys.RestoreNative)
//
// Restoration modes: RestoreNative uses the Go reference decoders;
// RestoreDynaRisc executes the archived decoder instruction streams on the
// DynaRisc reference CPU; RestoreNested additionally hosts DynaRisc inside
// the VeRisc emulator — the exact path a future user follows.
//
// Emblem frames are independent, so both directions fan per-frame work
// (rasterization on the way out, scan/decode on the way back) across a
// bounded worker pool. Options.Workers and RestoreOptions.Workers size the
// pool (0 = GOMAXPROCS, 1 = serial); results are byte-identical at any
// setting.
//
// Archives are multi-volume and streaming: ArchiveReader plans, encodes
// and places one outer-code group at a time onto a media.Volume — an
// ordered set of sheets (pages, reels) cut to Options.SheetFrames, with a
// group never straddling a carrier — and a restore flushes each group to
// an io.Writer as soon as its frames decode. Open parses the Bootstrap
// text once and returns a Reader whose Restore, Range and Section calls
// stream to an io.Writer, each with its own RestoreStats; the one-shot
// restore and query functions and the []byte APIs are thin wrappers over
// Open and one Reader call.
//
// Subpackages: media (analog media simulation and capacity models), raster
// (images), dynarisc and verisc (the two virtual processors), tpch (the
// evaluation workload generator).
package microlonys

import (
	"bytes"
	"io"

	"microlonys/internal/archindex"
	"microlonys/internal/core"
	"microlonys/media"
)

// Mode selects a restoration execution path.
type Mode = core.Mode

// Restoration modes.
const (
	RestoreNative   = core.RestoreNative
	RestoreDynaRisc = core.RestoreDynaRisc
	RestoreNested   = core.RestoreNested
)

// Options configures archival, including the Workers field bounding the
// frame-encode fan-out.
type Options = core.Options

// RestoreOptions configures restoration: the execution Mode and the
// Workers field bounding the frame scan/decode fan-out.
type RestoreOptions = core.RestoreOptions

// Manifest records what an archival run wrote.
type Manifest = core.Manifest

// Archived is a produced archive: the written medium, the Bootstrap
// document text and the manifest.
type Archived = core.Archived

// RestoreStats reports restoration diagnostics, including per-sheet and
// per-group recovery detail.
type RestoreStats = core.RestoreStats

// SheetReport is one media sheet's slice of RestoreStats.
type SheetReport = core.SheetReport

// GroupReport is one outer-code group's slice of RestoreStats.
type GroupReport = core.GroupReport

// DefaultOptions returns the paper's configuration (17+3 outer code,
// DBCoder compression) for a media profile.
func DefaultOptions(p media.Profile) Options { return core.DefaultOptions(p) }

// Archive runs the archival pipeline of Figure 2(a): the database archive
// bytes are compressed, laid out as emblems with nested Reed-Solomon
// protection, and written to the simulated medium together with the
// system emblems and Bootstrap document.
func Archive(data []byte, opts Options) (*Archived, error) {
	return core.CreateArchive(data, opts)
}

// ArchiveReader is Archive over an io.Reader: the pipeline plans, encodes
// and places one outer-code group at a time, so the rasterized frames are
// never materialized beyond the group in flight. With Options.SheetFrames
// set, the place stage shards groups across media sheets — a group never
// straddles a carrier — and the result's Volume holds every sheet
// (Medium aliases the single sheet when only one was cut).
func ArchiveReader(r io.Reader, opts Options) (*Archived, error) {
	return core.CreateArchiveStream(r, opts)
}

// Reader is an archive opened for restoration (Open): Restore, Range and
// Section write their answer to an io.Writer, Index returns the archive's
// index, and each call returns its own RestoreStats.
type Reader = core.Reader

// Open parses the Bootstrap text once and resolves the decoders the
// restore mode runs — in the emulated modes the archived MODecode
// program, and in nested mode the DynaRisc emulator the Bootstrap
// carries — so errors in the Bootstrap surface here. Every restore entry
// point below is Open followed by one Reader call.
func Open(v *media.Volume, bootstrapText string, opts RestoreOptions) (*Reader, error) {
	return core.Open(v, bootstrapText, opts)
}

// Restore runs the restoration pipeline of Figure 2(b) against a medium
// and the Bootstrap text, returning the original archive bytes.
func Restore(m *media.Medium, bootstrapText string, mode Mode) ([]byte, *RestoreStats, error) {
	return RestoreWith(m, bootstrapText, RestoreOptions{Mode: mode})
}

// RestoreWith is Restore with explicit options — most usefully Workers,
// which sizes the scan/decode worker pool. Output is byte-identical at
// any worker count.
func RestoreWith(m *media.Medium, bootstrapText string, opts RestoreOptions) ([]byte, *RestoreStats, error) {
	return RestoreVolume(media.VolumeOf(m), bootstrapText, opts)
}

// RestoreVolume restores a multi-sheet volume into memory.
func RestoreVolume(v *media.Volume, bootstrapText string, opts RestoreOptions) ([]byte, *RestoreStats, error) {
	return collect(v, bootstrapText, opts, (*Reader).Restore)
}

// RestoreTo runs the restoration pipeline group-incrementally against a
// volume, writing the restored bytes to w: each 17+3 group is
// outer-recovered and flushed as soon as its frames decode, bounding peak
// memory to the groups in flight instead of the whole archive (raw
// archives stream end to end; compressed archives buffer only the small
// compressed stream for DBDecode). RestoreOptions.Partial keeps going
// past lost carriers, zero-filling and reporting what could not be
// recovered.
func RestoreTo(w io.Writer, v *media.Volume, bootstrapText string, opts RestoreOptions) (*RestoreStats, error) {
	r, err := core.Open(v, bootstrapText, opts)
	if err != nil {
		return nil, err
	}
	return r.Restore(w)
}

// ArchiveIndex is a volume's selective-restore index: archive identity
// and geometry, DBS1 restart-block table and named sections, written one
// emblem per sheet when Options.Index is set.
type ArchiveIndex = archindex.Index

// ArchiveSection is one named extent of the original archive — a
// SQL-dump table or a column — recorded in the ArchiveIndex.
type ArchiveSection = archindex.Section

// ArchiveSection kinds.
const (
	SectionTable  = archindex.SectionTable
	SectionColumn = archindex.SectionColumn
)

// RestoreRange restores exactly bytes [off, off+length) of the original
// archive from an indexed volume (Options.Index), scanning and decoding
// only the data frames the range's stream span occupies — a group's
// parity and other frames are scanned only to recover a failed one,
// whole sheets outside the query are skipped without a single frame
// scan, and only the overlapping DBS1 restart blocks are decompressed.
// The bytes are identical to the same slice of a full Restore at any
// worker count. Volumes without a usable index fall back to a full
// restore (RestoreStats.IndexFallbacks).
func RestoreRange(v *media.Volume, bootstrapText string, off, length int, opts RestoreOptions) ([]byte, *RestoreStats, error) {
	return collect(v, bootstrapText, opts, func(r *Reader, w io.Writer) (*RestoreStats, error) {
		return r.Range(w, off, length)
	})
}

// RestoreTable restores one SQL-dump table's rows region by name through
// the index's section table, decoding only the data frames the table's
// restart blocks occupy (and the rest of a group only to recover it).
func RestoreTable(v *media.Volume, bootstrapText, table string, opts RestoreOptions) ([]byte, *RestoreStats, error) {
	return RestoreSection(v, bootstrapText, table, opts)
}

// RestoreSection restores one named archive section — a table ("nation")
// or a column ("nation.n_name") — through the index.
func RestoreSection(v *media.Volume, bootstrapText, name string, opts RestoreOptions) ([]byte, *RestoreStats, error) {
	return collect(v, bootstrapText, opts, func(r *Reader, w io.Writer) (*RestoreStats, error) {
		return r.Section(w, name)
	})
}

// ListIndex reads a volume's selective-restore index without decoding any
// payload group: one index emblem probe per sheet until one parses.
func ListIndex(v *media.Volume, bootstrapText string, opts RestoreOptions) (*ArchiveIndex, *RestoreStats, error) {
	r, err := core.Open(v, bootstrapText, opts)
	if err != nil {
		return nil, nil, err
	}
	return r.Index()
}

// collect opens v and runs one Reader call into memory.
func collect(v *media.Volume, bootstrapText string, opts RestoreOptions, call func(*Reader, io.Writer) (*RestoreStats, error)) ([]byte, *RestoreStats, error) {
	r, err := core.Open(v, bootstrapText, opts)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	st, err := call(r, &buf)
	if err != nil {
		return nil, st, err
	}
	return buf.Bytes(), st, nil
}

// SalvageOptions configures a Salvage run.
type SalvageOptions = core.SalvageOptions

// SalvageReport is the salvage ledger: sheets identified, duplicated and
// missing, catalog usage, and the best-effort restore's statistics.
type SalvageReport = core.SalvageReport

// Salvage is the disaster-path restore: it accepts an unordered bag of
// possibly damaged, duplicated or incomplete sheets — with no Bootstrap
// text and no sheet order — and restores best-effort. Sheets are
// identified and ordered from their self-describing catalog emblems
// (written when Options.Catalog was set), falling back to a majority
// vote over the surviving frame headers; redundant copies are deduped
// by best-decoding sheet; each restored group is verified against the
// catalog's checksum; what cannot be recovered is zero-filled at its
// archive offset and inventoried in the SalvageReport. The output is
// byte-identical to Restore whenever damage stays within the parity
// budget.
func Salvage(sheets []*media.Medium, opts SalvageOptions) ([]byte, *SalvageReport, error) {
	var buf bytes.Buffer
	rep, err := core.SalvageTo(&buf, sheets, opts)
	if err != nil {
		return nil, rep, err
	}
	return buf.Bytes(), rep, nil
}

// SalvageTo is Salvage streaming to an io.Writer.
func SalvageTo(w io.Writer, sheets []*media.Medium, opts SalvageOptions) (*SalvageReport, error) {
	return core.SalvageTo(w, sheets, opts)
}
