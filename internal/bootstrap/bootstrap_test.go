package bootstrap

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"microlonys/dynarisc"
	"microlonys/internal/dynprog"
	"microlonys/internal/emblem"
	"microlonys/internal/nested"
	"microlonys/verisc"
)

func TestLettersKnownValues(t *testing.T) {
	// A=0xF … P=0x0 (paper: "letters A to P are used to encode
	// hexadecimal values 0xF to 0x0 respectively").
	if got := EncodeLetters([]byte{0xF0}); got != "AP" {
		t.Fatalf("0xF0 -> %q, want AP", got)
	}
	if got := EncodeLetters([]byte{0x00}); got != "PP" {
		t.Fatalf("0x00 -> %q", got)
	}
	if got := EncodeLetters([]byte{0x5A}); got != "KF" {
		t.Fatalf("0x5A -> %q, want KF", got)
	}
}

func TestLettersRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		got, err := DecodeLetters(EncodeLetters(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLettersTolerateLayoutNoise(t *testing.T) {
	data := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	s := EncodeLetters(data)
	noisy := " " + s[:3] + "\n\t" + strings.ToLower(s[3:5]) + "\r\n" + s[5:] + " \n"
	got, err := DecodeLetters(noisy)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("noisy decode: %v %x", err, got)
	}
}

func TestLettersRejectJunk(t *testing.T) {
	if _, err := DecodeLetters("AZ"); err == nil {
		t.Fatal("Z accepted")
	}
	if _, err := DecodeLetters("ABC"); err == nil {
		t.Fatal("odd nibbles accepted")
	}
}

func TestVeRiscMarshalRoundTrip(t *testing.T) {
	p := &verisc.Program{Org: 8, Cells: []uint32{0, 20, 1, 4, 1, 5, 0xDEADBEEF}}
	got, err := UnmarshalVeRisc(MarshalVeRisc(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Org != p.Org || len(got.Cells) != len(p.Cells) {
		t.Fatal("shape")
	}
	for i := range p.Cells {
		if got.Cells[i] != p.Cells[i] {
			t.Fatal("cells")
		}
	}
	if _, err := UnmarshalVeRisc([]byte("nope")); err == nil {
		t.Fatal("junk accepted")
	}
	if _, err := UnmarshalVeRisc(MarshalVeRisc(p)[:10]); err == nil {
		t.Fatal("truncated accepted")
	}
}

func TestDynaRiscMarshalRoundTrip(t *testing.T) {
	p := dynarisc.MustAssemble("LDI R0, 7\nHALT")
	got, err := UnmarshalDynaRisc(MarshalDynaRisc(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Org != p.Org || len(got.Words) != len(p.Words) {
		t.Fatal("shape")
	}
	for i := range p.Words {
		if got.Words[i] != p.Words[i] {
			t.Fatal("words")
		}
	}
}

func buildDoc(t *testing.T) *Document {
	t.Helper()
	emu, err := nested.Program()
	if err != nil {
		t.Fatal(err)
	}
	mo, err := dynprog.MODecode()
	if err != nil {
		t.Fatal(err)
	}
	l := emblem.Layout{DataW: 100, DataH: 80, PxPerModule: 4}
	return New("test-profile", l, 17, 3, emu, mo)
}

func TestDocumentRenderParse(t *testing.T) {
	doc := buildDoc(t)
	text := doc.Render()
	got, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProfileName != "test-profile" || got.Layout.DataW != 100 ||
		got.GroupData != 17 || got.GroupParity != 3 {
		t.Fatalf("parsed fields: %+v", got)
	}

	// The embedded programs must be recoverable and identical.
	emu, err := got.EmulatorProgram()
	if err != nil {
		t.Fatal(err)
	}
	wantEmu, _ := nested.Program()
	if emu.Org != wantEmu.Org || len(emu.Cells) != len(wantEmu.Cells) {
		t.Fatal("emulator program mangled")
	}
	for i := range wantEmu.Cells {
		if emu.Cells[i] != wantEmu.Cells[i] {
			t.Fatalf("emulator cell %d differs", i)
		}
	}
	mo, err := got.MODecodeProgram()
	if err != nil {
		t.Fatal(err)
	}
	wantMo, _ := dynprog.MODecode()
	for i := range wantMo.Words {
		if mo.Words[i] != wantMo.Words[i] {
			t.Fatalf("MODecode word %d differs", i)
		}
	}
}

func TestDocumentPageStats(t *testing.T) {
	doc := buildDoc(t)
	s := doc.PageStats()
	if s.PseudocodeLines < 50 {
		t.Fatalf("pseudocode suspiciously short: %d lines", s.PseudocodeLines)
	}
	// §3.2: "a short, seven-page document". Our emulator is richer than
	// the authors' hand-optimised one, so allow the same order of
	// magnitude rather than the exact page count.
	if s.TotalPages < 2 || s.TotalPages > 40 {
		t.Fatalf("bootstrap is %d pages; expected a short document", s.TotalPages)
	}
	t.Logf("bootstrap: %d pseudocode pages + %d letter pages = %d total (%d letter chars)",
		s.PseudocodePages, s.LetterPages, s.TotalPages, s.LetterChars)
}

func TestParseRejectsDamage(t *testing.T) {
	doc := buildDoc(t)
	text := doc.Render()
	if _, err := Parse(strings.Replace(text, markEmulator, "xxxx", 1)); err == nil {
		t.Fatal("missing section accepted")
	}
	if _, err := Parse("not a bootstrap"); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestPseudocodeSelfSufficient asserts the document tells the future
// user everything the restoration procedure needs: all four VeRisc
// instructions, every memory-mapped cell, the letter decoding rule and
// the nested-execution steps. The paper's whole premise is that this
// text alone suffices decades later.
func TestPseudocodeSelfSufficient(t *testing.T) {
	doc := buildDoc(t)
	text := doc.Render()
	for _, needle := range []string{
		"(LD)", "(ST)", "(SBB)", "(AND)", // the four instructions, defined
		"PC", "borrow", // machine state
		"input", "output", "stop the machine", // I/O and halting
		"A=15(F)",                 // the paper's letter mapping, stated
		"Reed-Solomon", "GF(256)", // outer-code recovery recipe
		"DBC1", "VR01", "DR01", // the three container formats
		"guest_input", "pixels", // the emulator and scan protocols
		"big endian", "22-byte", // framing details a user needs
	} {
		if !strings.Contains(text, needle) {
			t.Fatalf("bootstrap text lacks %q", needle)
		}
	}
}

// TestParseToleratesOCRNoise simulates the paper's restoration step 1:
// the letters come back from OCR, which introduces case flips and
// whitespace — Parse must absorb both.
func TestParseToleratesOCRNoise(t *testing.T) {
	doc := buildDoc(t)
	text := doc.Render()

	// Lowercase the letters inside Section 3 (keeping the section
	// markers intact) and pad lines with trailing spaces, as scanned
	// text tends to arrive.
	start := strings.Index(text, markEmulator)
	end := strings.Index(text, markDecoder)
	if start < 0 || end < 0 {
		t.Fatal("section markers missing")
	}
	start += len(markEmulator)
	noisy := text[:start] +
		strings.ReplaceAll(strings.ToLower(text[start:end]), "\n", "  \n") +
		text[end:]

	parsed, err := Parse(noisy)
	if err != nil {
		t.Fatalf("OCR-noised document rejected: %v", err)
	}
	want, err := doc.EmulatorProgram()
	if err != nil {
		t.Fatal(err)
	}
	got, err := parsed.EmulatorProgram()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("emulator program length %d, want %d", len(got.Cells), len(want.Cells))
	}
	for i := range want.Cells {
		if got.Cells[i] != want.Cells[i] {
			t.Fatalf("emulator cell %d differs", i)
		}
	}
}

// FuzzParse feeds Parse arbitrary text, as every restore and query entry
// point hands it the caller's Bootstrap document: Parse, and the program
// decoders on whatever it accepts, must return errors, never panic. The
// seeds are a rendered document and one whose geometry marker's trailing
// "====" also opens the emulator marker. The document embeds tiny
// programs, so the seed stays a few kilobytes and mutates quickly.
func FuzzParse(f *testing.F) {
	doc := New("fuzz", emblem.Layout{DataW: 100, DataH: 80, PxPerModule: 4}, 17, 3,
		&verisc.Program{Org: 8, Cells: []uint32{0, 20, 1}},
		&dynarisc.Program{Org: 4, Words: []uint16{0x1234, 0xBEEF}})
	f.Add(doc.Render())
	f.Add(markHeader + "\n" + markLayout + markEmulator[4:] + "\n")
	f.Fuzz(func(t *testing.T, text string) {
		d, err := Parse(text)
		if err != nil {
			return
		}
		d.EmulatorProgram()
		d.MODecodeProgram()
	})
}
