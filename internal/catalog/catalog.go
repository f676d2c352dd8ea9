// Package catalog defines the per-sheet salvage catalog: the
// self-describing emblem written onto every sheet of a catalog-enabled
// volume so that a future user holding any surviving carrier — and
// nothing else, not even the Bootstrap document — can inventory what the
// archive contained, verify what they hold, and recover what remains.
//
// Every sheet's catalog frame carries the whole volume's story:
//
//   - the archive identity (a deterministic 64-bit id) and this sheet's
//     ordinal among the volume's sheets;
//   - the emblem layout and outer-code group shape, which is everything a
//     native decoder needs to read the other frames;
//   - the volume inventory: per-sheet frame and group ranges, so one
//     surviving sheet names exactly what is missing;
//   - per-group CRC-32 checksums over the group's data payloads, so
//     recovery can be verified group by group;
//   - a compressed replica of the Bootstrap essentials (the DynaRisc
//     emulator and MODecode instruction streams), from which the full
//     Bootstrap document is reconstructed when the paper copy is lost;
//   - plain-text recovery instructions for the human holding the sheet.
//
// Frames are small on some media, so Marshal trims the optional parts —
// replica first, then instructions, group checksums, sheet inventory —
// until the catalog fits the frame capacity; flags record what survived
// and Parse tolerates every trim level. The fixed identity/layout core
// always fits any emblem the system can produce.
package catalog

import (
	"errors"
	"fmt"
	"hash/crc32"

	"microlonys/dynarisc"
	"microlonys/internal/bootstrap"
	"microlonys/internal/dbcoder"
	"microlonys/internal/emblem"
	"microlonys/verisc"
)

// SheetRange is one sheet's slice of the volume inventory. Frame indices
// are global scan positions (catalog slots included); group ids are the
// planner's outer-code group sequence.
type SheetRange struct {
	StartFrame int // global index of the sheet's first frame (its catalog slot)
	Frames     int // frames on the sheet, catalog slot included
	StartGroup int // first outer-code group placed on the sheet
	Groups     int // groups placed on the sheet
}

// GroupSum is one outer-code group's checksum record, indexed by group id.
type GroupSum struct {
	Kind   emblem.Kind // section kind of the group's data members
	Data   uint8       // data frames in the group
	Parity uint8       // parity frames in the group
	CRC    uint32      // CRC-32 (IEEE) over the data payloads, padded to frame capacity, in group position order
}

// Catalog is one sheet's self-describing record.
type Catalog struct {
	ArchiveID   uint64
	Sheet       int // this sheet's ordinal
	SheetCount  int
	TotalFrames int // frames in the whole volume, catalog slots included
	TotalGroups int

	GroupData   int // default data frames per group (short final groups excepted)
	GroupParity int
	Layout      emblem.Layout
	ProfileName string
	Compress    bool // the archive ran DBCoder
	RawLen      int
	StreamLen   int
	SystemLen   int

	Instructions string       // plain-text recovery instructions (may be trimmed)
	Sheets       []SheetRange // volume inventory (may be trimmed)
	Groups       []GroupSum   // per-group checksums, indexed by id (may be trimmed)
	Replica      []byte       // compressed bootstrap essentials (may be trimmed)

	// IndexSlot records that every sheet reserves a selective-restore
	// index slot right after its catalog slot — salvage needs the reserved
	// count to map local frame positions back to planner indices. Carried
	// in a flag bit, so catalogs of index-free volumes are byte-identical
	// to pre-index ones.
	IndexSlot bool
	// IndexReplica is the marshalled selective-restore index
	// (internal/archindex, already compressed), so salvage can answer
	// range queries from a surviving catalog even when every dedicated
	// index frame is lost. First in line for trimming.
	IndexReplica []byte
}

const (
	magic   = "MOCT"
	version = 1

	flagSheets       = 1 << 0
	flagGroups       = 1 << 1
	flagReplica      = 1 << 2
	flagInstructions = 1 << 3
	flagIndexSlot    = 1 << 4 // no payload: records the reserved index slot
	flagIndexReplica = 1 << 5

	// maxCount is what the emblem header can address: frame indices,
	// group ids and sheet ordinals are uint16.
	maxCount = 1 << 16
)

// ErrCatalog reports an unreadable or oversized catalog.
var ErrCatalog = errors.New("catalog: unreadable catalog frame")

// Instructions returns the default plain-text recovery instructions
// rendered into every catalog frame with room for them.
func Instructions() string {
	return "THIS SHEET IS PART OF A MICR'OLONYS DATABASE ARCHIVE. " +
		"Each sheet begins with one catalog frame (this one) describing the whole volume: " +
		"sheet count, frame and group ranges, and per-group checksums. " +
		"To recover the data: scan every frame of every surviving sheet, in any order; " +
		"decode the 2D emblems (geometry in this record and in the Bootstrap document); " +
		"order frames by the index in each frame's header; rebuild missing frames from " +
		"each group's parity; verify groups against the checksums here. " +
		"If the Bootstrap document is lost, this record's replica section contains its " +
		"machine-readable core."
}

// AppendMarshal serialises the catalog without a size budget.
func (c *Catalog) AppendMarshal(b []byte) []byte {
	out, _ := c.marshal(b, flagSheets|flagGroups|flagReplica|flagInstructions|flagIndexReplica)
	return out
}

// Marshal serialises the catalog into at most capacity bytes, trimming
// optional sections — index replica first, then the bootstrap replica,
// instructions, group checksums, and the sheet inventory — until it fits.
// capacity <= 0 means no limit. An error means even the fixed identity
// core exceeds the budget.
func (c *Catalog) Marshal(capacity int) ([]byte, error) {
	trims := []uint8{
		flagSheets | flagGroups | flagReplica | flagInstructions | flagIndexReplica,
		flagSheets | flagGroups | flagReplica | flagInstructions,
		flagSheets | flagGroups | flagInstructions,
		flagSheets | flagGroups,
		flagSheets,
		0,
	}
	for _, flags := range trims {
		out, err := c.marshal(nil, flags)
		if err != nil {
			return nil, err
		}
		if capacity <= 0 || len(out) <= capacity {
			return out, nil
		}
	}
	min, _ := c.marshal(nil, 0)
	return nil, fmt.Errorf("catalog: minimal catalog of %d bytes exceeds frame capacity %d", len(min), capacity)
}

func (c *Catalog) marshal(b []byte, flags uint8) ([]byte, error) {
	if len(c.Sheets) == 0 {
		flags &^= flagSheets
	}
	if len(c.Groups) == 0 {
		flags &^= flagGroups
	}
	if len(c.Replica) == 0 {
		flags &^= flagReplica
	}
	if c.Instructions == "" {
		flags &^= flagInstructions
	}
	if len(c.IndexReplica) == 0 {
		flags &^= flagIndexReplica
	}
	if c.IndexSlot {
		flags |= flagIndexSlot // orthogonal to the trim ladder
	}
	if len(c.ProfileName) > 255 {
		return nil, fmt.Errorf("catalog: profile name of %d bytes", len(c.ProfileName))
	}

	start := len(b)
	b = append(b, magic...)
	b = append(b, version, flags)
	b = appendU64(b, c.ArchiveID)
	b = appendU32(b, uint32(c.Sheet))
	b = appendU32(b, uint32(c.SheetCount))
	b = appendU32(b, uint32(c.TotalFrames))
	b = appendU32(b, uint32(c.TotalGroups))
	b = append(b, uint8(c.GroupData), uint8(c.GroupParity))
	b = appendU32(b, uint32(c.Layout.DataW))
	b = appendU32(b, uint32(c.Layout.DataH))
	b = append(b, uint8(c.Layout.PxPerModule), boolByte(c.Compress))
	b = appendU32(b, uint32(c.RawLen))
	b = appendU32(b, uint32(c.StreamLen))
	b = appendU32(b, uint32(c.SystemLen))
	b = append(b, uint8(len(c.ProfileName)))
	b = append(b, c.ProfileName...)
	if flags&flagInstructions != 0 {
		b = appendU16(b, uint16(len(c.Instructions)))
		b = append(b, c.Instructions...)
	}
	if flags&flagSheets != 0 {
		b = appendU32(b, uint32(len(c.Sheets)))
		for _, s := range c.Sheets {
			b = appendU32(b, uint32(s.StartFrame))
			b = appendU32(b, uint32(s.Frames))
			b = appendU32(b, uint32(s.StartGroup))
			b = appendU32(b, uint32(s.Groups))
		}
	}
	if flags&flagGroups != 0 {
		b = appendU32(b, uint32(len(c.Groups)))
		for _, g := range c.Groups {
			b = append(b, uint8(g.Kind), g.Data, g.Parity)
			b = appendU32(b, g.CRC)
		}
	}
	if flags&flagReplica != 0 {
		b = appendU32(b, uint32(len(c.Replica)))
		b = append(b, c.Replica...)
	}
	if flags&flagIndexReplica != 0 {
		b = appendU32(b, uint32(len(c.IndexReplica)))
		b = append(b, c.IndexReplica...)
	}
	b = appendU32(b, crc32.ChecksumIEEE(b[start:]))
	return b, nil
}

// Parse reads a catalog frame payload back, validating the trailing
// CRC-32 and tolerating every trim level Marshal can emit. Payload bytes
// past the catalog's own record (emblem padding) are ignored. Counts the
// emblem header cannot address — more than 65536 sheets or groups, more
// frames than 65536 plus each sheet's reserved slots, a sheet ordinal or
// inventory range outside them — are rejected as implausible: salvage
// sizes its frame space from them.
func Parse(b []byte) (*Catalog, error) {
	r := reader{b: b}
	if string(r.take(4)) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCatalog)
	}
	if v := r.u8(); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCatalog, v)
	}
	flags := r.u8()
	c := &Catalog{}
	c.ArchiveID = r.u64()
	c.Sheet = int(r.u32())
	c.SheetCount = int(r.u32())
	c.TotalFrames = int(r.u32())
	c.TotalGroups = int(r.u32())
	c.GroupData = int(r.u8())
	c.GroupParity = int(r.u8())
	c.Layout.DataW = int(r.u32())
	c.Layout.DataH = int(r.u32())
	c.Layout.PxPerModule = int(r.u8())
	c.Compress = r.u8() != 0
	c.RawLen = int(r.u32())
	c.StreamLen = int(r.u32())
	c.SystemLen = int(r.u32())
	c.ProfileName = string(r.take(int(r.u8())))
	if flags&flagInstructions != 0 {
		c.Instructions = string(r.take(int(r.u16())))
	}
	if flags&flagSheets != 0 {
		n := int(r.u32())
		if n < 0 || n > len(r.b)/16 {
			return nil, fmt.Errorf("%w: sheet inventory of %d entries", ErrCatalog, n)
		}
		c.Sheets = make([]SheetRange, n)
		for i := range c.Sheets {
			c.Sheets[i] = SheetRange{
				StartFrame: int(r.u32()), Frames: int(r.u32()),
				StartGroup: int(r.u32()), Groups: int(r.u32()),
			}
		}
	}
	if flags&flagGroups != 0 {
		n := int(r.u32())
		if n < 0 || n > len(r.b)/7 {
			return nil, fmt.Errorf("%w: group checksum list of %d entries", ErrCatalog, n)
		}
		c.Groups = make([]GroupSum, n)
		for i := range c.Groups {
			c.Groups[i] = GroupSum{Kind: emblem.Kind(r.u8()), Data: r.u8(), Parity: r.u8(), CRC: r.u32()}
		}
	}
	if flags&flagReplica != 0 {
		n := int(r.u32())
		if n < 0 || n > len(r.b) {
			return nil, fmt.Errorf("%w: replica of %d bytes", ErrCatalog, n)
		}
		c.Replica = append([]byte(nil), r.take(n)...)
	}
	c.IndexSlot = flags&flagIndexSlot != 0
	if flags&flagIndexReplica != 0 {
		n := int(r.u32())
		if n < 0 || n > len(r.b) {
			return nil, fmt.Errorf("%w: index replica of %d bytes", ErrCatalog, n)
		}
		c.IndexReplica = append([]byte(nil), r.take(n)...)
	}
	sum := r.u32()
	if r.err {
		return nil, fmt.Errorf("%w: truncated record", ErrCatalog)
	}
	if crc32.ChecksumIEEE(b[:r.off-4]) != sum {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCatalog)
	}
	reserved := 1 + int(boolByte(c.IndexSlot))
	if c.SheetCount > maxCount || c.Sheet >= c.SheetCount || c.TotalGroups > maxCount ||
		c.TotalFrames > maxCount+c.SheetCount*reserved {
		return nil, fmt.Errorf("%w: implausible counts", ErrCatalog)
	}
	for _, s := range c.Sheets {
		if s.StartFrame+s.Frames > c.TotalFrames {
			return nil, fmt.Errorf("%w: sheet inventory beyond the volume", ErrCatalog)
		}
	}
	return c, nil
}

// GroupCRC computes the checksum a GroupSum records: CRC-32 (IEEE) over
// the group's data payloads, each padded to the frame capacity, in group
// position order. Archive and restore sides share this exact definition.
func GroupCRC(padded [][]byte) uint32 {
	h := crc32.NewIEEE()
	for _, p := range padded {
		h.Write(p)
	}
	return h.Sum32()
}

// The bootstrap-essentials replica: the two instruction streams the
// Bootstrap document exists to deliver, compressed with DBCoder. The
// pseudocode and letter encoding are static text this implementation
// regenerates, so the replica plus the catalog's layout fields
// reconstruct the full document byte for byte.

const essentialsMagic = "BSE1"

// EncodeEssentials packs the emulator and MODecode streams into the
// compressed replica blob.
func EncodeEssentials(emulator *verisc.Program, modecode *dynarisc.Program) []byte {
	emu := bootstrap.MarshalVeRisc(emulator)
	mo := bootstrap.MarshalDynaRisc(modecode)
	raw := make([]byte, 0, 12+len(emu)+len(mo))
	raw = append(raw, essentialsMagic...)
	raw = appendU32(raw, uint32(len(emu)))
	raw = append(raw, emu...)
	raw = appendU32(raw, uint32(len(mo)))
	raw = append(raw, mo...)
	return dbcoder.Compress(raw)
}

// DecodeEssentials unpacks an EncodeEssentials replica.
func DecodeEssentials(replica []byte) (*verisc.Program, *dynarisc.Program, error) {
	raw, err := dbcoder.Decompress(replica)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: replica: %v", ErrCatalog, err)
	}
	r := reader{b: raw}
	if string(r.take(4)) != essentialsMagic {
		return nil, nil, fmt.Errorf("%w: replica magic", ErrCatalog)
	}
	emuRaw := r.take(int(r.u32()))
	moRaw := r.take(int(r.u32()))
	if r.err {
		return nil, nil, fmt.Errorf("%w: truncated replica", ErrCatalog)
	}
	emu, err := bootstrap.UnmarshalVeRisc(emuRaw)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: replica emulator: %v", ErrCatalog, err)
	}
	mo, err := bootstrap.UnmarshalDynaRisc(moRaw)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: replica MODecode: %v", ErrCatalog, err)
	}
	return emu, mo, nil
}

// BootstrapDoc reconstructs the full Bootstrap document from the
// catalog's replica and layout fields — the bootstrap-free salvage path.
// It fails when the replica was trimmed away at archive time.
func (c *Catalog) BootstrapDoc() (*bootstrap.Document, error) {
	if len(c.Replica) == 0 {
		return nil, fmt.Errorf("%w: catalog carries no bootstrap replica", ErrCatalog)
	}
	emu, mo, err := DecodeEssentials(c.Replica)
	if err != nil {
		return nil, err
	}
	doc := bootstrap.New(c.ProfileName, c.Layout, c.GroupData, c.GroupParity, emu, mo)
	doc.Catalog = true
	doc.Index = c.IndexSlot
	return doc, nil
}

// reader is a bounds-checked big-endian cursor; the err flag latches on
// the first read past the end so Parse can validate once at the end.
type reader struct {
	b   []byte
	off int
	err bool
}

func (r *reader) take(n int) []byte {
	if n < 0 || r.off+n > len(r.b) {
		r.err = true
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0])<<8 | uint16(b[1])
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func (r *reader) u64() uint64 {
	hi := r.u32()
	return uint64(hi)<<32 | uint64(r.u32())
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func appendU64(b []byte, v uint64) []byte {
	return appendU32(appendU32(b, uint32(v>>32)), uint32(v))
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
