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
// group never straddling a carrier — and RestoreTo flushes each group to
// an io.Writer as soon as its frames decode. The []byte APIs are thin
// wrappers over the streaming ends.
//
// Subpackages: media (analog media simulation and capacity models), raster
// (images), dynarisc and verisc (the two virtual processors), tpch (the
// evaluation workload generator).
package microlonys

import (
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

// Restore runs the restoration pipeline of Figure 2(b) against a medium
// and the Bootstrap text, returning the original archive bytes.
func Restore(m *media.Medium, bootstrapText string, mode Mode) ([]byte, *RestoreStats, error) {
	return core.Restore(m, bootstrapText, mode)
}

// RestoreWith is Restore with explicit options — most usefully Workers,
// which sizes the scan/decode worker pool. Output is byte-identical at
// any worker count.
func RestoreWith(m *media.Medium, bootstrapText string, opts RestoreOptions) ([]byte, *RestoreStats, error) {
	return core.RestoreWithOptions(m, bootstrapText, opts)
}

// RestoreVolume restores a multi-sheet volume into memory.
func RestoreVolume(v *media.Volume, bootstrapText string, opts RestoreOptions) ([]byte, *RestoreStats, error) {
	return core.RestoreVolume(v, bootstrapText, opts)
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
	return core.RestoreToWriter(w, v, bootstrapText, opts)
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
// scan, and only the overlapping DBS1 restart blocks are decompressed. The bytes are identical to the
// same slice of a full Restore at any worker count. Volumes without a
// usable index fall back to a full restore (RestoreStats.IndexFallbacks).
func RestoreRange(v *media.Volume, bootstrapText string, off, length int, opts RestoreOptions) ([]byte, *RestoreStats, error) {
	return core.RestoreRange(v, bootstrapText, off, length, opts)
}

// RestoreTable restores one SQL-dump table's rows region by name through
// the index's section table, decoding only the data frames the table's
// restart blocks occupy (and the rest of a group only to recover it).
func RestoreTable(v *media.Volume, bootstrapText, table string, opts RestoreOptions) ([]byte, *RestoreStats, error) {
	return core.RestoreTable(v, bootstrapText, table, opts)
}

// RestoreSection restores one named archive section — a table ("nation")
// or a column ("nation.n_name") — through the index.
func RestoreSection(v *media.Volume, bootstrapText, name string, opts RestoreOptions) ([]byte, *RestoreStats, error) {
	return core.RestoreSection(v, bootstrapText, name, opts)
}

// ListIndex reads a volume's selective-restore index without decoding any
// payload group: one index emblem probe per sheet until one parses.
func ListIndex(v *media.Volume, bootstrapText string, opts RestoreOptions) (*ArchiveIndex, *RestoreStats, error) {
	return core.ListIndex(v, bootstrapText, opts)
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
	return core.Salvage(sheets, opts)
}

// SalvageTo is Salvage streaming to an io.Writer.
func SalvageTo(w io.Writer, sheets []*media.Medium, opts SalvageOptions) (*SalvageReport, error) {
	return core.SalvageTo(w, sheets, opts)
}
