// Package core implements the ULE pipeline of Micr'Olonys (§3.3 of the
// paper): the seven archival steps that turn a textual database archive
// into emblems, system emblems and a Bootstrap document on simulated
// analog media, and the six restoration steps that bring the data back —
// optionally executing the archived decoders under emulation exactly as a
// future user would.
//
// Both directions are organised as explicit stage pipelines over
// independent emblem frames:
//
//	archive:  plan group → encode frame + store on medium  (archive.go)
//	restore:  scan → decode frame → reassemble             (engine.go, restore.go)
//
// One layout function (layoutGroups) decides where every outer-code group
// lands; the archive planner cuts its groups and a query replays it from
// the index. Restoration starts from the Bootstrap alone: Open parses it
// once and returns a Reader, whose full restore (Restore), range and
// section queries (Range, Section) and index listing (Index) — like
// salvage (SalvageTo), which needs no Bootstrap text — are each one
// executor run (decodeFrames) over their own frame plan, decoded one
// window at a time on scan scratch borrowed from a pool.
//
// The plan and reassemble stages are serial (they carry the cross-frame
// state: chunking, outer-code groups, stream totals); the per-frame
// stages and DBCoder's restart blocks fan out over bounded worker pools
// (internal/slots) sized by Options.Workers / RestoreOptions.Workers,
// defaulting to GOMAXPROCS, each task holding one of the process-wide
// frame slots. An archive frame task stores its emblem at the position
// the volume reserved for it, and a restore's consumer takes each decoded
// window in plan order on the caller's goroutine, so every produced byte
// is identical at any worker count.
package core

import (
	"context"
	"errors"
	"fmt"

	"microlonys/internal/bootstrap"
	"microlonys/internal/mocoder"
	"microlonys/media"
)

// Mode selects the restoration execution path.
type Mode int

const (
	// RestoreNative runs the Go reference decoders (fast; the archivist's
	// verification path).
	RestoreNative Mode = iota
	// RestoreDynaRisc executes the archived MODecode/DBDecode instruction
	// streams on the DynaRisc reference CPU — the decoders that were
	// actually stored on the medium do the work.
	RestoreDynaRisc
	// RestoreNested additionally hosts DynaRisc inside the VeRisc
	// emulator: the full future-user path (slow; use small archives).
	RestoreNested
)

func (m Mode) String() string {
	switch m {
	case RestoreNative:
		return "native"
	case RestoreDynaRisc:
		return "dynarisc"
	case RestoreNested:
		return "nested"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options configures archival.
type Options struct {
	Profile   media.Profile
	GroupData int  // data emblems per outer-code group (default and maximum 17; parity is fixed at 3)
	Compress  bool // run DBCoder (default); false archives raw payloads

	// CompressDepth is DBCoder's match-finder chain depth (0 selects
	// dbcoder.DefaultDepth): the archive-speed vs density dial — lower
	// depths encode faster, higher depths find longer matches and pack
	// more data per frame. The cmd/microlonys -depth flag sets it.
	CompressDepth int

	// Workers bounds the frame-encode and restart-block-compression
	// worker pools: 0 (the default) uses GOMAXPROCS, 1 encodes one frame
	// (compresses one block) at a time, larger values cap the fan-out.
	// Output is byte-identical at any setting.
	Workers int

	// SheetFrames caps the frames per media sheet (a page bundle, a film
	// reel): the place stage cuts a new sheet whenever the next
	// outer-code group would not fit, so a group never straddles a
	// carrier and losing a whole sheet costs only that sheet's groups.
	// 0 (the default) writes one unbounded sheet — the single-medium
	// layout, byte-identical to the pre-Volume pipeline.
	SheetFrames int

	// Catalog reserves the first frame of every sheet for a
	// self-describing catalog emblem (internal/catalog): archive identity,
	// volume inventory, per-group checksums, a compressed replica of the
	// Bootstrap essentials and plain-text recovery instructions. Catalog
	// volumes can be restored by Salvage from an unordered bag of sheets
	// with no external bootstrap text. Off by default — catalog-free
	// archives stay byte-identical to previous releases. The catalog slot
	// counts against SheetFrames, so a bounded sheet needs one frame more
	// than a group (GroupData plus 3 parity frames).
	Catalog bool

	// Index reserves one more frame per sheet for a selective-restore
	// index emblem (internal/archindex) mapping logical archive bytes to
	// physical volume extents: RestoreRange and RestoreTable consult it to
	// scan and decode only the data frames a query's bytes occupy.
	// Compressed archives switch to the DBS1 seekable container
	// (independently decodable restart blocks) so a byte range can be
	// decompressed without the rest of the stream. Off by default —
	// index-free volumes stay byte-identical to previous releases. The
	// index slot counts against SheetFrames like the catalog slot.
	Index bool

	// IndexBlockBytes sets the DBS1 restart-block size for indexed
	// compressed archives. 0 selects one group's worth of payload bytes
	// (GroupData × frame capacity), widened when needed so the block
	// table still fits a single index frame next to the section table.
	// Smaller blocks tighten the set of frames a range query must scan
	// and decode; larger blocks compress better.
	IndexBlockBytes int

	// Context, when non-nil, cancels the archive pipeline: DBCoder stops
	// at the next restart block of an indexed archive, frame tasks still
	// waiting for a slot never start, planning stops at the next group
	// boundary, and CreateArchive returns the context's error. Nil means
	// no external cancellation (context.Background()).
	Context context.Context
}

// DefaultOptions returns the paper's configuration for a profile.
func DefaultOptions(p media.Profile) Options {
	return Options{
		Profile:   p,
		GroupData: mocoder.GroupData,
		Compress:  true,
	}
}

// RestoreOptions configures restoration.
type RestoreOptions struct {
	Mode Mode

	// Workers bounds the frame scan/decode worker pool, with the same
	// semantics as Options.Workers: 0 = GOMAXPROCS, 1 = serial.
	Workers int

	// Partial keeps restoring past unrecoverable groups instead of
	// aborting: the lost groups' data bytes are zero-filled in the output
	// (offsets stay aligned) and reported in RestoreStats. Most useful
	// for raw archives after carrier loss — a compressed stream with a
	// hole still fails at DBDecode.
	Partial bool

	// Context, when non-nil, cancels the restore pipeline: scan/decode
	// workers stop, the group assembler drains, and Restore returns an
	// error wrapping both ErrRestore and the context's error. Nil means no
	// external cancellation (context.Background()).
	Context context.Context
}

// Manifest records what was written.
type Manifest struct {
	RawLen        int // original archive bytes
	StreamLen     int // bytes after DBCoder (== RawLen when !Compress)
	SystemLen     int // bytes of the archived DBDecode program
	DataEmblems   int
	SystemEmblems int
	ParityEmblems int
	TotalFrames   int // frames written, catalog slots included
	Groups        int
	Sheets        int // media sheets the place stage cut

	// Catalog-volume fields (Options.Catalog): the deterministic archive
	// identity rendered into every catalog emblem, and the number of
	// catalog frames written (one per sheet).
	ArchiveID     uint64
	CatalogFrames int

	// IndexFrames is the number of selective-restore index emblems written
	// (Options.Index: one per sheet).
	IndexFrames int
}

// Archived is the result of CreateArchive.
type Archived struct {
	// Volume holds every written sheet. Medium aliases the first sheet
	// when the archive fits one sheet (always true with
	// Options.SheetFrames == 0, the default) and is nil for multi-sheet
	// archives — medium-level callers keep working unchanged, volume-aware
	// callers use Volume.
	Volume        *media.Volume
	Medium        *media.Medium
	Bootstrap     *bootstrap.Document
	BootstrapText string
	Manifest      Manifest
	Options       Options
}

// SheetReport is one sheet's slice of RestoreStats.
type SheetReport struct {
	Frames          int // frames consumed from this sheet
	FramesFailed    int // frames that did not decode
	FramesLost      int // frames in wholly-unidentifiable runs (Partial mode)
	Groups          int // groups identified on this sheet
	GroupsRecovered int // groups the outer code repaired
	GroupsLost      int // groups lost beyond parity (Partial mode)
}

// GroupReport is one outer-code group's slice of RestoreStats, in group
// order. A full restore reads every group whole; a query reads a group
// only at the data frames its bytes occupy, and whole when one of those
// fails, so Frames and Missing count the frames the restore scanned from
// the group.
type GroupReport struct {
	ID         int    // header GroupID
	Sheet      int    // sheet holding the group (groups never straddle)
	Kind       string // data, system, parity... the group's section kind
	Frames     int    // frames scanned: data + parity, or a query's data frames when all decoded
	Missing    int    // of those, frames the outer code had to supply
	Recovered  bool   // outer code ran and succeeded
	Lost       bool   // beyond parity; zero-filled (Partial mode only)
	Verified   bool   // data matched the catalog's group checksum
	Mismatched bool   // data decoded but contradicted the checksum
}

// RestoreStats reports how restoration went.
type RestoreStats struct {
	FramesScanned   int
	FramesFailed    int
	BytesCorrected  int // inner-code corrections (native mode only)
	GroupsRecovered int // groups that needed the outer code
	GroupsLost      int // identified groups beyond parity (Partial mode)
	FramesLost      int // frames in wholly-unidentifiable runs (Partial mode)
	BytesLost       int // output bytes zero-filled for lost groups (Partial mode)
	Mode            Mode

	// Catalog-volume tallies: catalog frames consumed out-of-band by the
	// assembler, and groups checked against the catalog's per-group
	// checksums (verified + mismatched ≤ groups restored; groups with no
	// checksum available are neither).
	CatalogFrames    int
	GroupsVerified   int
	GroupsMismatched int

	// Selective-restore tallies (RestoreRange/RestoreTable/ListIndex).
	// A query scans its index probes and the data frames its bytes
	// occupy, plus the rest of any group one of those fails in — each
	// frame at most once. FramesSkipped counts volume frames the query
	// never scanned — FramesScanned + FramesSkipped equals the volume's
	// frame count on a successful indexed query. GroupsDecoded counts
	// outer-code groups the query assembled, whole or in part.
	// IndexFrames counts index emblems consumed (full restores also tally
	// the ones they pass over). IndexFallbacks counts queries that fell
	// back to a full restore because no usable index was readable.
	FramesSkipped  int
	GroupsDecoded  int
	IndexFrames    int
	IndexFallbacks int

	// Per-sheet and per-group recovery detail, indexed by sheet and in
	// group order respectively. Identical at any worker count.
	Sheets []SheetReport
	Groups []GroupReport
}

// ErrRestore wraps restoration failures.
var ErrRestore = errors.New("core: restoration failed")
