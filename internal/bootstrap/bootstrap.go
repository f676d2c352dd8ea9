// Package bootstrap builds and parses the Bootstrap document (§3.2/§3.3
// of the paper): the short plain-text document archived on analog media
// alongside the emblems, containing everything a future user needs to
// restore the data on a computing platform that does not exist today.
//
// The document has two parts:
//
//   - plain-text pseudocode describing the VeRisc machine, the letter
//     encoding, and the restoration procedure (a few pages a programmer
//     can implement "in under a week", per §4);
//   - the binary instruction streams of the DynaRisc emulator (a VeRisc
//     program) and of MODecode (a DynaRisc program), converted to a list
//     of textual characters with the paper's letter code: letters A to P
//     encode hexadecimal values 0xF down to 0x0.
//
// DBCoder's decoder is NOT in the document: it is archived as system
// emblems (§3.3 step 5), because once MODecode runs, emblems can decode
// themselves. MOCoder and the emulator cannot be stored as emblems — they
// are what reads emblems — hence the letters.
package bootstrap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"microlonys/dynarisc"
	"microlonys/internal/emblem"
	"microlonys/verisc"
)

// EncodeLetters converts bytes to the letter alphabet: each nibble v
// (high first) becomes the letter 'A'+(0xF-v), so A=0xF … P=0x0.
func EncodeLetters(data []byte) string {
	var b strings.Builder
	b.Grow(len(data) * 2)
	for _, d := range data {
		b.WriteByte('A' + (0xF - d>>4))
		b.WriteByte('A' + (0xF - d&0xF))
	}
	return b.String()
}

// ErrBadLetter reports a character outside A..P in a letter stream.
var ErrBadLetter = errors.New("bootstrap: invalid letter")

// DecodeLetters converts a letter stream back to bytes, skipping
// whitespace and line breaks (scanned text arrives with layout noise).
func DecodeLetters(s string) ([]byte, error) {
	nibbles := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			continue
		case c >= 'A' && c <= 'P':
			nibbles = append(nibbles, 0xF-(c-'A'))
		case c >= 'a' && c <= 'p': // tolerate OCR case errors
			nibbles = append(nibbles, 0xF-(c-'a'))
		default:
			return nil, fmt.Errorf("%w: %q at offset %d", ErrBadLetter, c, i)
		}
	}
	if len(nibbles)%2 != 0 {
		return nil, fmt.Errorf("%w: odd nibble count %d", ErrBadLetter, len(nibbles))
	}
	out := make([]byte, len(nibbles)/2)
	for i := range out {
		out[i] = nibbles[2*i]<<4 | nibbles[2*i+1]
	}
	return out, nil
}

// Binary program serialisations used inside the letter sections.
const (
	veriscMagic   = "VR01"
	dynariscMagic = "DR01"
)

// MarshalVeRisc serialises a VeRisc program (org, length, 32-bit cells,
// all big endian).
func MarshalVeRisc(p *verisc.Program) []byte {
	out := make([]byte, 0, 12+4*len(p.Cells))
	out = append(out, veriscMagic...)
	out = binary.BigEndian.AppendUint32(out, p.Org)
	out = binary.BigEndian.AppendUint32(out, uint32(len(p.Cells)))
	for _, c := range p.Cells {
		out = binary.BigEndian.AppendUint32(out, c)
	}
	return out
}

// UnmarshalVeRisc parses MarshalVeRisc output.
func UnmarshalVeRisc(data []byte) (*verisc.Program, error) {
	if len(data) < 12 || string(data[:4]) != veriscMagic {
		return nil, errors.New("bootstrap: not a VeRisc program stream")
	}
	org := binary.BigEndian.Uint32(data[4:])
	n := int(binary.BigEndian.Uint32(data[8:]))
	if len(data) != 12+4*n {
		return nil, fmt.Errorf("bootstrap: VeRisc stream length %d, want %d cells", len(data), n)
	}
	cells := make([]uint32, n)
	for i := range cells {
		cells[i] = binary.BigEndian.Uint32(data[12+4*i:])
	}
	return &verisc.Program{Org: org, Cells: cells}, nil
}

// MarshalDynaRisc serialises a DynaRisc program (16-bit words).
func MarshalDynaRisc(p *dynarisc.Program) []byte {
	out := make([]byte, 0, 10+2*len(p.Words))
	out = append(out, dynariscMagic...)
	out = binary.BigEndian.AppendUint16(out, p.Org)
	out = binary.BigEndian.AppendUint32(out, uint32(len(p.Words)))
	for _, w := range p.Words {
		out = binary.BigEndian.AppendUint16(out, w)
	}
	return out
}

// UnmarshalDynaRisc parses MarshalDynaRisc output.
func UnmarshalDynaRisc(data []byte) (*dynarisc.Program, error) {
	if len(data) < 10 || string(data[:4]) != dynariscMagic {
		return nil, errors.New("bootstrap: not a DynaRisc program stream")
	}
	org := binary.BigEndian.Uint16(data[4:])
	n := int(binary.BigEndian.Uint32(data[6:]))
	if len(data) != 10+2*n {
		return nil, fmt.Errorf("bootstrap: DynaRisc stream length %d, want %d words", len(data), n)
	}
	words := make([]uint16, n)
	for i := range words {
		words[i] = binary.BigEndian.Uint16(data[10+2*i:])
	}
	return &dynarisc.Program{Org: org, Words: words}, nil
}

// Document is the Bootstrap: everything the future user receives as text.
type Document struct {
	ProfileName string
	Layout      emblem.Layout
	GroupData   int
	GroupParity int
	// Catalog records that the volume reserves the first frame of every
	// sheet for a self-describing catalog emblem (internal/catalog), which
	// the restore assembler must skip when locating outer-code groups.
	Catalog bool
	// Index records that the volume reserves a frame on every sheet (after
	// the catalog slot, when present) for a selective-restore index emblem
	// (internal/archindex), likewise skipped by the group assembler.
	Index bool

	Pseudocode      string
	EmulatorLetters string // DynaRisc emulator (VeRisc instruction stream)
	MODecodeLetters string // MOCoder decoder (DynaRisc instruction stream)
}

// New builds the document for an emblem layout, embedding the emulator
// and MODecode instruction streams.
func New(profileName string, l emblem.Layout, groupData, groupParity int,
	emulator *verisc.Program, modecode *dynarisc.Program) *Document {
	return &Document{
		ProfileName:     profileName,
		Layout:          l,
		GroupData:       groupData,
		GroupParity:     groupParity,
		Pseudocode:      pseudocode(),
		EmulatorLetters: EncodeLetters(MarshalVeRisc(emulator)),
		MODecodeLetters: EncodeLetters(MarshalDynaRisc(modecode)),
	}
}

// Section markers in the rendered document.
const (
	markHeader   = "==== MICR'OLONYS BOOTSTRAP v1 ===="
	markLayout   = "==== SECTION 2: EMBLEM GEOMETRY ===="
	markEmulator = "==== SECTION 3: DYNARISC EMULATOR (letters) ===="
	markDecoder  = "==== SECTION 4: MODECODE (letters) ===="
	markEnd      = "==== END OF BOOTSTRAP ===="
)

// Render produces the full text document.
func (d *Document) Render() string {
	var b strings.Builder
	b.WriteString(markHeader + "\n\n")
	b.WriteString(d.Pseudocode)
	b.WriteString("\n" + markLayout + "\n")
	fmt.Fprintf(&b, "profile=%s\n", d.ProfileName)
	fmt.Fprintf(&b, "dataw=%d datah=%d pxpermodule=%d\n", d.Layout.DataW, d.Layout.DataH, d.Layout.PxPerModule)
	fmt.Fprintf(&b, "groupdata=%d groupparity=%d\n", d.GroupData, d.GroupParity)
	if d.Catalog {
		// Emitted only when set so pre-catalog documents render unchanged;
		// Parse has always ignored unknown keys, so old readers skip it.
		fmt.Fprintf(&b, "catalog=1\n")
	}
	if d.Index {
		// Same compatibility story as catalog=1 above.
		fmt.Fprintf(&b, "index=1\n")
	}
	b.WriteString("\n" + markEmulator + "\n")
	b.WriteString(wrap(d.EmulatorLetters, 64))
	b.WriteString("\n" + markDecoder + "\n")
	b.WriteString(wrap(d.MODecodeLetters, 64))
	b.WriteString("\n" + markEnd + "\n")
	return b.String()
}

func wrap(s string, width int) string {
	var b strings.Builder
	for len(s) > width {
		b.WriteString(s[:width])
		b.WriteByte('\n')
		s = s[width:]
	}
	b.WriteString(s)
	b.WriteByte('\n')
	return b.String()
}

// Parse reads a rendered document back (the "OCR" step of restoration).
func Parse(text string) (*Document, error) {
	if !strings.Contains(text, markHeader) {
		return nil, errors.New("bootstrap: missing header marker")
	}
	// A section ends at the first closing marker after its own marker, so
	// a closing marker that overlaps the opening one does not count.
	section := func(from, to string) (string, error) {
		_, rest, ok := strings.Cut(text, from)
		body, _, closed := strings.Cut(rest, to)
		if !ok || !closed {
			return "", fmt.Errorf("bootstrap: cannot locate section %q", from)
		}
		return body, nil
	}
	layoutTxt, err := section(markLayout, markEmulator)
	if err != nil {
		return nil, err
	}
	emuTxt, err := section(markEmulator, markDecoder)
	if err != nil {
		return nil, err
	}
	decTxt, err := section(markDecoder, markEnd)
	if err != nil {
		return nil, err
	}
	d := &Document{
		EmulatorLetters: compactLetters(emuTxt),
		MODecodeLetters: compactLetters(decTxt),
	}
	for _, line := range strings.Split(strings.TrimSpace(layoutTxt), "\n") {
		for _, field := range strings.Fields(line) {
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				continue
			}
			switch k {
			case "profile":
				d.ProfileName = v
			case "dataw":
				fmt.Sscan(v, &d.Layout.DataW)
			case "datah":
				fmt.Sscan(v, &d.Layout.DataH)
			case "pxpermodule":
				fmt.Sscan(v, &d.Layout.PxPerModule)
			case "groupdata":
				fmt.Sscan(v, &d.GroupData)
			case "groupparity":
				fmt.Sscan(v, &d.GroupParity)
			case "catalog":
				d.Catalog = v == "1"
			case "index":
				d.Index = v == "1"
			}
		}
	}
	if err := d.Layout.Validate(); err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	return d, nil
}

// compactLetters keeps only the letters A–P and a–p of s, compacted into
// one buffer of len(s) bytes: every restore and query parses ~116 KB of
// letters.
func compactLetters(s string) string {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= 'A' && c <= 'P') || (c >= 'a' && c <= 'p') {
			b = append(b, c)
		}
	}
	return string(b)
}

// EmulatorProgram decodes the embedded DynaRisc emulator.
func (d *Document) EmulatorProgram() (*verisc.Program, error) {
	raw, err := DecodeLetters(d.EmulatorLetters)
	if err != nil {
		return nil, err
	}
	return UnmarshalVeRisc(raw)
}

// MODecodeProgram decodes the embedded media layout decoder.
func (d *Document) MODecodeProgram() (*dynarisc.Program, error) {
	raw, err := DecodeLetters(d.MODecodeLetters)
	if err != nil {
		return nil, err
	}
	return UnmarshalDynaRisc(raw)
}

// Stats summarises the document for the E4 portability experiment.
type Stats struct {
	PseudocodeLines int
	LetterChars     int
	TotalChars      int
	PseudocodePages int
	LetterPages     int
	TotalPages      int
}

// PageStats computes page counts at the classic 80×66 characters/page.
func (d *Document) PageStats() Stats {
	const pageChars = 80 * 66
	text := d.Render()
	letters := len(d.EmulatorLetters) + len(d.MODecodeLetters)
	pseudoChars := len(text) - letters
	s := Stats{
		PseudocodeLines: strings.Count(d.Pseudocode, "\n"),
		LetterChars:     letters,
		TotalChars:      len(text),
	}
	s.PseudocodePages = (pseudoChars + pageChars - 1) / pageChars
	s.LetterPages = (letters + pageChars - 1) / pageChars
	s.TotalPages = s.PseudocodePages + s.LetterPages
	return s
}
