// Package emblem defines the geometry and header of Micr'Olonys emblems —
// the archival 2D barcodes MOCoder prints to analog media (§3.1, Figure 1).
//
// An emblem is a rectangular module grid:
//
//	┌ quiet zone (2 modules, white)
//	│ ┌ border (2 modules, solid black — fast, robust geometry detection)
//	│ │ ┌ separator (1 module, white)
//	│ │ │ ┌ data region (DataW × DataH modules)
//	▼ ▼ ▼ ▼
//	..BB.dddddddddd.BB..
//
// The four 6×6-module corners of the data region hold distinct orientation
// marks (the paper's "large-scale black and white dots"); the remaining
// modules carry a serpentine, Differential-Manchester-modulated bit stream
// (internal/mocoder). The stream begins with three copies of the Header
// defined here, followed by the interleaved inner Reed-Solomon code stream.
package emblem

import (
	"errors"
	"fmt"
)

// Geometry constants, in modules.
const (
	QuietModules     = 2
	BorderModules    = 2
	SeparatorModules = 1
	// MarginModules is the total margin on each side of the data region.
	MarginModules = QuietModules + BorderModules + SeparatorModules
	// CornerBox is the side of the orientation-mark boxes in the data
	// region corners.
	CornerBox = 6
	// MinDataSide keeps the corner boxes disjoint with room between them.
	MinDataSide = 2*CornerBox + 4
)

// HeaderCopies is the replication factor of the header inside the stream.
const HeaderCopies = 3

// HeaderSize is the marshalled header length in bytes (including CRC).
const HeaderSize = 22

// Version is the emblem format version emitted by this implementation.
const Version = 1

// Kind labels what an emblem carries (Figure 2 of the paper).
type Kind uint8

const (
	// KindData emblems carry the DBCoder-compressed database archive.
	KindData Kind = iota + 1
	// KindSystem emblems carry the DBDecode DynaRisc instruction stream.
	KindSystem
	// KindParity emblems carry outer-code parity for a group.
	KindParity
	// KindRaw emblems carry arbitrary uncompressed payloads (e.g. the
	// Olonys logo image of the microfilm experiment).
	KindRaw
	// KindCatalog emblems carry the per-sheet salvage catalog
	// (internal/catalog): archive identity, volume inventory, per-group
	// checksums and a bootstrap replica. Catalog frames belong to no
	// outer-code group — their header carries GroupData 0 and the
	// CatalogGroupID sentinel — and are skipped by the group assembler.
	KindCatalog
	// KindIndex emblems carry the selective-restore index
	// (internal/archindex): the logical→physical map that lets
	// RestoreRange/RestoreTable decode only the groups a byte range
	// needs. Like catalog frames they live in a reserved per-sheet slot,
	// belong to no outer-code group (GroupData = 0, GroupID =
	// IndexGroupID) and are skipped by the group assembler.
	KindIndex
)

// CatalogGroupID is the sentinel GroupID catalog frame headers carry:
// catalog frames sit outside the outer-code group sequence, so they must
// never collide with a real (monotonically assigned) group id.
const CatalogGroupID = 0xFFFF

// IndexGroupID is the sentinel GroupID index frame headers carry, distinct
// from CatalogGroupID so a surviving header alone names its slot.
const IndexGroupID = 0xFFFE

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindSystem:
		return "system"
	case KindParity:
		return "parity"
	case KindRaw:
		return "raw"
	case KindCatalog:
		return "catalog"
	case KindIndex:
		return "index"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Layout fixes the emblem geometry for one medium.
type Layout struct {
	DataW, DataH int // data region size in modules
	PxPerModule  int // rendered pixels per module side
}

// Validate reports whether the layout is usable.
func (l Layout) Validate() error {
	if l.DataW < MinDataSide || l.DataH < MinDataSide {
		return fmt.Errorf("emblem: data region %dx%d below minimum %d", l.DataW, l.DataH, MinDataSide)
	}
	if l.PxPerModule < 1 {
		return fmt.Errorf("emblem: pixels per module %d < 1", l.PxPerModule)
	}
	return nil
}

// FullModulesW returns the emblem width in modules including margins.
func (l Layout) FullModulesW() int { return l.DataW + 2*MarginModules }

// FullModulesH returns the emblem height in modules including margins.
func (l Layout) FullModulesH() int { return l.DataH + 2*MarginModules }

// ImageW returns the rendered image width in pixels.
func (l Layout) ImageW() int { return l.FullModulesW() * l.PxPerModule }

// ImageH returns the rendered image height in pixels.
func (l Layout) ImageH() int { return l.FullModulesH() * l.PxPerModule }

// GridW returns the border-enclosed grid width in modules (border to
// border, excluding the quiet zone) — the span between detected corners.
func (l Layout) GridW() int { return l.DataW + 2*(BorderModules+SeparatorModules) }

// GridH is the border-enclosed grid height in modules.
func (l Layout) GridH() int { return l.DataH + 2*(BorderModules+SeparatorModules) }

// Point is a module coordinate within the data region.
type Point struct{ X, Y int }

// inCornerBox reports whether (x, y) falls inside an orientation mark.
func (l Layout) inCornerBox(x, y int) bool {
	inX0 := x < CornerBox
	inX1 := x >= l.DataW-CornerBox
	inY0 := y < CornerBox
	inY1 := y >= l.DataH-CornerBox
	return (inX0 || inX1) && (inY0 || inY1)
}

// DataPath returns the serpentine module order of the data stream: even
// rows run left to right, odd rows right to left, skipping the four corner
// boxes. Encoder and decoder share this exact order. Each call builds the
// path afresh; internal/mocoder builds it once per layout.
func (l Layout) DataPath() []Point {
	path := make([]Point, 0, l.DataW*l.DataH-4*CornerBox*CornerBox)
	for y := 0; y < l.DataH; y++ {
		if y%2 == 0 {
			for x := 0; x < l.DataW; x++ {
				if !l.inCornerBox(x, y) {
					path = append(path, Point{x, y})
				}
			}
		} else {
			for x := l.DataW - 1; x >= 0; x-- {
				if !l.inCornerBox(x, y) {
					path = append(path, Point{x, y})
				}
			}
		}
	}
	return path
}

// StreamBits returns the number of data bits an emblem carries: each bit
// occupies two modules (Differential Manchester halves).
func (l Layout) StreamBits() int {
	return (l.DataW*l.DataH - 4*CornerBox*CornerBox) / 2
}

// Header identifies an emblem and its place in the archive. It is stored
// three times at the start of the stream, each copy CRC-16 protected, and
// recovered by per-byte majority vote.
type Header struct {
	Version     uint8
	Kind        Kind
	Index       uint16 // emblem index within the whole archive section
	Total       uint16 // emblems in the archive section
	GroupID     uint16 // outer-code group this emblem belongs to
	GroupPos    uint8  // position within the group (data first, then parity)
	GroupData   uint8  // number of data emblems in the group
	GroupParity uint8  // number of parity emblems in the group
	PayloadLen  uint32 // payload bytes carried by this emblem
	TotalLen    uint32 // total payload bytes across the archive section
}

const headerMagic = 0xE5

// Marshal serialises the header (big endian) with a trailing CRC-16.
func (h Header) Marshal() []byte {
	return h.AppendMarshal(make([]byte, 0, HeaderSize))
}

// AppendMarshal appends the serialised header to b and returns the
// extended slice — Marshal for callers assembling a stream in a reused
// buffer.
func (h Header) AppendMarshal(b []byte) []byte {
	start := len(b)
	b = append(b, headerMagic, h.Version, uint8(h.Kind))
	b = appendU16(b, h.Index)
	b = appendU16(b, h.Total)
	b = appendU16(b, h.GroupID)
	b = append(b, h.GroupPos, h.GroupData, h.GroupParity)
	b = appendU32(b, h.PayloadLen)
	b = appendU32(b, h.TotalLen)
	crc := CRC16(b[start:])
	b = appendU16(b, crc)
	return b
}

// ErrHeader reports an unrecoverable emblem header.
var ErrHeader = errors.New("emblem: header unreadable")

// ParseHeader deserialises one header copy, validating magic and CRC.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: short buffer", ErrHeader)
	}
	if b[0] != headerMagic {
		return Header{}, fmt.Errorf("%w: bad magic %#x", ErrHeader, b[0])
	}
	if CRC16(b[:HeaderSize-2]) != u16(b[HeaderSize-2:]) {
		return Header{}, fmt.Errorf("%w: CRC mismatch", ErrHeader)
	}
	h := Header{
		Version:     b[1],
		Kind:        Kind(b[2]),
		Index:       u16(b[3:]),
		Total:       u16(b[5:]),
		GroupID:     u16(b[7:]),
		GroupPos:    b[9],
		GroupData:   b[10],
		GroupParity: b[11],
		PayloadLen:  u32(b[12:]),
		TotalLen:    u32(b[16:]),
	}
	if h.Version != Version {
		return Header{}, fmt.Errorf("%w: unsupported version %d", ErrHeader, h.Version)
	}
	return h, nil
}

// RecoverHeader reconstructs the header from HeaderCopies copies using
// per-byte majority vote, then validates the result.
func RecoverHeader(stream []byte) (Header, error) {
	need := HeaderCopies * HeaderSize
	if len(stream) < need {
		return Header{}, fmt.Errorf("%w: stream shorter than header block", ErrHeader)
	}
	voted := make([]byte, HeaderSize)
	for i := range voted {
		a, b, c := stream[i], stream[HeaderSize+i], stream[2*HeaderSize+i]
		voted[i] = majority3(a, b, c)
	}
	if h, err := ParseHeader(voted); err == nil {
		return h, nil
	}
	// Majority failed (two copies damaged in the same byte): try each copy.
	for k := 0; k < HeaderCopies; k++ {
		if h, err := ParseHeader(stream[k*HeaderSize:]); err == nil {
			return h, nil
		}
	}
	return Header{}, ErrHeader
}

func majority3(a, b, c byte) byte {
	return a&b | a&c | b&c
}

// CRC16 computes the CRC-16/CCITT-FALSE checksum (poly 0x1021, init 0xFFFF)
// used by the emblem header.
func CRC16(p []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range p {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func u16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func u32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// CornerPattern returns the 6×6 orientation mark for data-region corner c
// (0=TL, 1=TR, 2=BR, 3=BL); true means black.
func CornerPattern(c int) [CornerBox][CornerBox]bool {
	var p [CornerBox][CornerBox]bool
	switch c {
	case 0: // solid block
		for y := range p {
			for x := range p {
				p[y][x] = true
			}
		}
	case 1: // ring: black outline, white interior
		for y := range p {
			for x := range p {
				p[y][x] = y == 0 || y == CornerBox-1 || x == 0 || x == CornerBox-1
			}
		}
	case 2: // centre dot: white with black 2×2 core
		for y := 2; y < 4; y++ {
			for x := 2; x < 4; x++ {
				p[y][x] = true
			}
		}
	case 3: // checkerboard of 3×3 blocks
		for y := range p {
			for x := range p {
				p[y][x] = (x/3+y/3)%2 == 0
			}
		}
	default:
		panic("emblem: corner index out of range")
	}
	return p
}
