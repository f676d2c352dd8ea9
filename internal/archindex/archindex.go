// Package archindex defines the selective-restore index: the per-sheet
// emblem that maps logical archive bytes to physical volume extents so a
// range or table query can be answered without scanning the whole volume.
//
// The index deliberately stores *parameters*, not tables. Frame placement
// in Micr'Olonys is fully deterministic: given the section lengths, the
// frame capacity, the outer-code group shape, the sheet size and the
// per-sheet reserved slots, the archive's layout function (the one the
// planner cut its groups from) can be run again exactly. The restore side
// re-derives every group's (sheet, frame, stream-offset) extent from a
// dozen integers instead of reading a per-group table that would not fit
// small frames, bounding the replay by the frame count of the volume in
// hand so a forged length cannot make it lay out more groups than the
// volume holds. What cannot be derived is stored explicitly:
//
//   - the DBS1 restart-block table (raw/compressed extents of each
//     independently decodable DBCoder block), for compressed archives;
//   - named sections: byte ranges of SQL-dump tables and columnar columns,
//     so RestoreTable can resolve a name to a raw-byte range.
//
// The record is a "MOIX" header over a DBCoder-compressed body (the block
// and section tables are highly regular, so compression typically shrinks
// them below the capacity of even the smallest emblem). Like the catalog,
// Marshal trims optional parts — column sections first, then table
// sections, then the block table — until the record fits the frame
// capacity, and Parse tolerates every trim level. A restore that needs a
// trimmed part falls back to the full scan path.
package archindex

import (
	"encoding/binary"
	"errors"
	"fmt"

	"microlonys/internal/dbcoder"
)

// Section kinds.
const (
	SectionTable  = 1 // a SQL-dump table's rows region
	SectionColumn = 2 // one column of a table (names the covering rows region)
)

// Section names one byte range of the raw archive. For SectionColumn the
// name is "table.column"; the range is the minimal contiguous cover — the
// owning table's rows region, since row-major dumps interleave columns.
type Section struct {
	Kind int
	Name string
	Off  int // raw-byte offset into the uncompressed archive
	Len  int
}

// Index is the archive's logical→physical map. The geometry fields mirror
// core.Options and the planner's manifest; Blocks is the DBS1 restart
// table (empty for raw archives); Sections are the named byte ranges.
type Index struct {
	ArchiveID   uint64
	Compress    bool
	CatalogSlot bool // sheets also reserve a catalog slot before the index slot
	RawLen      int
	StreamLen   int // compressed stream length (= RawLen for raw archives)
	SystemLen   int
	GroupData   int
	GroupParity int
	SheetFrames int // frames per sheet at archive time; 0 = unbounded

	Blocks   []dbcoder.SeekBlock
	Sections []Section
}

const (
	magic   = "MOIX"
	version = 1

	flagBlocks   = 1 << 0
	flagSections = 1 << 1

	boolCompress    = 1 << 0
	boolCatalogSlot = 1 << 1

	// maxBodyLen bounds the decompressed body size Parse will accept; a
	// legitimate index is a few kilobytes, and the cap keeps a forged
	// header from demanding gigabytes of output.
	maxBodyLen = 1 << 24
)

// ErrIndex reports an unreadable or oversized index record.
var ErrIndex = errors.New("archindex: unreadable index frame")

// Marshal serialises the index into at most capacity bytes, trimming
// optional parts — column sections, then table sections, then the block
// table — until it fits. capacity <= 0 means no limit. An error means
// even the fixed core exceeds the budget.
func (x *Index) Marshal(capacity int) ([]byte, error) {
	tables := filterSections(x.Sections, SectionTable)
	trims := []struct {
		flags    uint8
		sections []Section
	}{
		{flagBlocks | flagSections, x.Sections},
		{flagBlocks | flagSections, tables},
		{flagBlocks, nil},
		{0, nil},
	}
	for _, tr := range trims {
		out := x.marshal(tr.flags, tr.sections)
		if capacity <= 0 || len(out) <= capacity {
			return out, nil
		}
	}
	min := x.marshal(0, nil)
	return nil, fmt.Errorf("archindex: minimal index of %d bytes exceeds frame capacity %d", len(min), capacity)
}

func filterSections(secs []Section, kind int) []Section {
	var out []Section
	for _, s := range secs {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

func (x *Index) marshal(flags uint8, sections []Section) []byte {
	if len(x.Blocks) == 0 {
		flags &^= flagBlocks
	}
	if len(sections) == 0 {
		flags &^= flagSections
	}
	var bools uint8
	if x.Compress {
		bools |= boolCompress
	}
	if x.CatalogSlot {
		bools |= boolCatalogSlot
	}

	body := []byte{flags, bools}
	body = binary.AppendUvarint(body, x.ArchiveID)
	for _, v := range []int{x.RawLen, x.StreamLen, x.SystemLen, x.GroupData, x.GroupParity, x.SheetFrames} {
		body = binary.AppendUvarint(body, uint64(v))
	}
	if flags&flagBlocks != 0 {
		body = binary.AppendUvarint(body, uint64(x.Blocks[0].CompOff))
		body = binary.AppendUvarint(body, uint64(len(x.Blocks)))
		for _, b := range x.Blocks {
			body = binary.AppendUvarint(body, uint64(b.RawLen))
			body = binary.AppendUvarint(body, uint64(b.CompLen))
		}
	}
	if flags&flagSections != 0 {
		body = binary.AppendUvarint(body, uint64(len(sections)))
		for _, s := range sections {
			body = append(body, uint8(s.Kind))
			body = binary.AppendUvarint(body, uint64(len(s.Name)))
			body = append(body, s.Name...)
			body = binary.AppendUvarint(body, uint64(s.Off))
			body = binary.AppendUvarint(body, uint64(s.Len))
		}
	}

	out := make([]byte, 0, len(magic)+1+len(body))
	out = append(out, magic...)
	out = append(out, version)
	return append(out, dbcoder.Compress(body)...)
}

// Parse reads an index frame payload back. Trailing bytes past the
// compressed body (emblem padding) are ignored; integrity rides the
// DBCoder container's CRC. Parse never panics on truncated or bit-flipped
// input, and validates that extents are self-consistent.
func Parse(b []byte) (*Index, error) {
	if len(b) < len(magic)+1 || string(b[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrIndex)
	}
	if b[4] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrIndex, b[4])
	}
	blob := b[5:]
	if n, err := dbcoder.RawLen(blob); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIndex, err)
	} else if n > maxBodyLen {
		return nil, fmt.Errorf("%w: body of %d bytes", ErrIndex, n)
	}
	body, err := dbcoder.Decompress(blob)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIndex, err)
	}

	r := reader{b: body}
	flags := r.u8()
	bools := r.u8()
	x := &Index{
		Compress:    bools&boolCompress != 0,
		CatalogSlot: bools&boolCatalogSlot != 0,
	}
	x.ArchiveID = r.uvarint()
	x.RawLen = r.vint()
	x.StreamLen = r.vint()
	x.SystemLen = r.vint()
	x.GroupData = r.vint()
	x.GroupParity = r.vint()
	x.SheetFrames = r.vint()
	if flags&flagBlocks != 0 {
		compOff := r.vint()
		n := r.vint()
		if n < 0 || n > len(r.b) {
			return nil, fmt.Errorf("%w: block table of %d entries", ErrIndex, n)
		}
		rawOff := 0
		x.Blocks = make([]dbcoder.SeekBlock, n)
		for i := range x.Blocks {
			rl, cl := r.vint(), r.vint()
			x.Blocks[i] = dbcoder.SeekBlock{RawOff: rawOff, RawLen: rl, CompOff: compOff, CompLen: cl}
			rawOff += rl
			compOff += cl
		}
		if r.err {
			return nil, fmt.Errorf("%w: truncated block table", ErrIndex)
		}
		if rawOff != x.RawLen || compOff > x.StreamLen {
			return nil, fmt.Errorf("%w: block extents inconsistent with stream", ErrIndex)
		}
	}
	if flags&flagSections != 0 {
		n := r.vint()
		if n < 0 || n > len(r.b) {
			return nil, fmt.Errorf("%w: section table of %d entries", ErrIndex, n)
		}
		x.Sections = make([]Section, n)
		for i := range x.Sections {
			kind := int(r.u8())
			name := string(r.take(r.vint()))
			off, ln := r.vint(), r.vint()
			if r.err {
				return nil, fmt.Errorf("%w: truncated section table", ErrIndex)
			}
			if off < 0 || ln < 0 || off+ln > x.RawLen {
				return nil, fmt.Errorf("%w: section %q extent out of range", ErrIndex, name)
			}
			x.Sections[i] = Section{Kind: kind, Name: name, Off: off, Len: ln}
		}
	}
	if r.err {
		return nil, fmt.Errorf("%w: truncated record", ErrIndex)
	}
	if x.RawLen < 0 || x.StreamLen < 0 || x.SystemLen < 0 ||
		x.GroupData <= 0 || x.GroupData > 255 || x.GroupParity < 0 || x.GroupParity > 255 ||
		x.SheetFrames < 0 {
		return nil, fmt.Errorf("%w: implausible geometry", ErrIndex)
	}
	return x, nil
}

// Lookup returns the named section, preferring table sections when a name
// matches both kinds.
func (x *Index) Lookup(name string) (Section, bool) {
	for _, kind := range []int{SectionTable, SectionColumn} {
		for _, s := range x.Sections {
			if s.Kind == kind && s.Name == name {
				return s, true
			}
		}
	}
	return Section{}, false
}

// Tables returns the table-section names in record order.
func (x *Index) Tables() []string {
	var out []string
	for _, s := range x.Sections {
		if s.Kind == SectionTable {
			out = append(out, s.Name)
		}
	}
	return out
}

// reader is a bounds-checked cursor; err latches on the first read past
// the end.
type reader struct {
	b   []byte
	off int
	err bool
}

func (r *reader) take(n int) []byte {
	if n < 0 || r.off+n > len(r.b) || r.off+n < 0 {
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

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = true
		return 0
	}
	r.off += n
	return v
}

// vint reads a uvarint and rejects values that overflow int.
func (r *reader) vint() int {
	v := r.uvarint()
	if v > 1<<62 {
		r.err = true
		return 0
	}
	return int(v)
}
