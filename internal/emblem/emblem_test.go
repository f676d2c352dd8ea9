package emblem

import (
	"testing"
	"testing/quick"
)

func testLayout() Layout { return Layout{DataW: 80, DataH: 60, PxPerModule: 4} }

func TestLayoutValidate(t *testing.T) {
	if err := testLayout().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Layout{
		{DataW: 10, DataH: 60, PxPerModule: 4},
		{DataW: 80, DataH: 10, PxPerModule: 4},
		{DataW: 80, DataH: 60, PxPerModule: 0},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Fatalf("layout %d accepted", i)
		}
	}
}

func TestLayoutDerived(t *testing.T) {
	l := testLayout()
	if l.FullModulesW() != 80+2*MarginModules {
		t.Fatal("FullModulesW")
	}
	if l.ImageW() != l.FullModulesW()*4 {
		t.Fatal("ImageW")
	}
	if l.GridW() != 80+2*(BorderModules+SeparatorModules) {
		t.Fatal("GridW")
	}
}

// TestDataPathShared: DataPath computes a layout's path once and shares
// it, and a different layout gets its own.
func TestDataPathShared(t *testing.T) {
	l := testLayout()
	if a, b := l.DataPath(), l.DataPath(); &a[0] != &b[0] {
		t.Fatal("DataPath recomputed the path of the same layout")
	}
	wide := l
	wide.DataW += 2
	if a, b := l.DataPath(), wide.DataPath(); len(b) != len(a)+2*l.DataH {
		t.Fatalf("a layout two modules wider has a path of %d points, want %d", len(b), len(a)+2*l.DataH)
	}
}

func TestDataPathProperties(t *testing.T) {
	l := testLayout()
	path := l.DataPath()
	wantLen := l.DataW*l.DataH - 4*CornerBox*CornerBox
	if len(path) != wantLen {
		t.Fatalf("path len %d, want %d", len(path), wantLen)
	}
	seen := make(map[Point]bool, len(path))
	for _, p := range path {
		if p.X < 0 || p.X >= l.DataW || p.Y < 0 || p.Y >= l.DataH {
			t.Fatalf("point out of range: %+v", p)
		}
		if l.inCornerBox(p.X, p.Y) {
			t.Fatalf("path enters corner box: %+v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate point %+v", p)
		}
		seen[p] = true
	}
	// Serpentine: consecutive points in the same row are adjacent.
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		if a.Y == b.Y && abs(a.X-b.X) != 1 {
			t.Fatalf("gap within row at %d: %+v -> %+v", i, a, b)
		}
	}
	if l.StreamBits() != wantLen/2 {
		t.Fatal("StreamBits")
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Version: Version, Kind: KindData, Index: 7, Total: 26,
		GroupID: 2, GroupPos: 4, GroupData: 17, GroupParity: 3,
		PayloadLen: 50175, TotalLen: 1200000,
	}
	b := h.Marshal()
	if len(b) != HeaderSize {
		t.Fatalf("marshalled size %d", len(b))
	}
	got, err := ParseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestHeaderQuick(t *testing.T) {
	f := func(kind uint8, idx, tot, gid uint16, gp, gd, gpar uint8, pl, tl uint32) bool {
		h := Header{
			Version: Version, Kind: Kind(kind), Index: idx, Total: tot,
			GroupID: gid, GroupPos: gp, GroupData: gd, GroupParity: gpar,
			PayloadLen: pl, TotalLen: tl,
		}
		got, err := ParseHeader(h.Marshal())
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeaderCRCDetectsDamage(t *testing.T) {
	h := Header{Version: Version, Kind: KindData, Index: 1, Total: 2}
	b := h.Marshal()
	for i := range b {
		bad := append([]byte(nil), b...)
		bad[i] ^= 0x40
		if _, err := ParseHeader(bad); err == nil {
			t.Fatalf("flip at byte %d undetected", i)
		}
	}
}

func TestRecoverHeaderMajority(t *testing.T) {
	h := Header{Version: Version, Kind: KindSystem, Index: 3, Total: 9, PayloadLen: 100}
	one := h.Marshal()
	stream := append(append(append([]byte{}, one...), one...), one...)

	// Damage one copy heavily: majority still wins.
	for i := 0; i < HeaderSize; i += 2 {
		stream[HeaderSize+i] ^= 0xFF
	}
	got, err := RecoverHeader(stream)
	if err != nil || got != h {
		t.Fatalf("majority recovery failed: %+v %v", got, err)
	}

	// Damage two copies in *different* bytes: majority byte-vote fails for
	// none (each byte still has 2 good copies)... damage same byte in two
	// copies: majority fails there, but copy 3 alone parses.
	stream2 := append(append(append([]byte{}, one...), one...), one...)
	stream2[5] ^= 0xAA
	stream2[HeaderSize+5] ^= 0x55
	got, err = RecoverHeader(stream2)
	if err != nil || got != h {
		t.Fatalf("fallback recovery failed: %+v %v", got, err)
	}

	// All three copies destroyed: must error.
	for c := 0; c < 3; c++ {
		for i := 0; i < HeaderSize; i += 3 {
			stream2[c*HeaderSize+i] ^= byte(0x11 * (c + 1))
		}
	}
	if _, err := RecoverHeader(stream2); err == nil {
		t.Fatal("destroyed header recovered")
	}
}

func TestRecoverHeaderShort(t *testing.T) {
	if _, err := RecoverHeader(make([]byte, 10)); err == nil {
		t.Fatal("short stream accepted")
	}
}

func TestParseHeaderRejectsVersion(t *testing.T) {
	h := Header{Version: Version, Kind: KindData}
	b := h.Marshal()
	b[1] = 99
	// Re-CRC so only the version check can fail.
	crc := CRC16(b[:HeaderSize-2])
	b[HeaderSize-2] = byte(crc >> 8)
	b[HeaderSize-1] = byte(crc)
	if _, err := ParseHeader(b); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE("123456789") = 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("CRC16 = %#x, want 0x29B1", got)
	}
}

func TestCornerPatternsDistinct(t *testing.T) {
	count := func(p [CornerBox][CornerBox]bool) int {
		n := 0
		for _, row := range p {
			for _, v := range row {
				if v {
					n++
				}
			}
		}
		return n
	}
	darkness := map[int]int{}
	for c := 0; c < 4; c++ {
		darkness[c] = count(CornerPattern(c))
	}
	// Pairwise Hamming distance between patterns must be large enough to
	// discriminate under noise.
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			pa, pb := CornerPattern(a), CornerPattern(b)
			d := 0
			for y := 0; y < CornerBox; y++ {
				for x := 0; x < CornerBox; x++ {
					if pa[y][x] != pb[y][x] {
						d++
					}
				}
			}
			if d < 8 {
				t.Fatalf("patterns %d and %d too similar (hamming %d)", a, b, d)
			}
		}
	}
}

func TestCornerPatternPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	CornerPattern(4)
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindData: "data", KindSystem: "system", KindParity: "parity",
		KindRaw: "raw", Kind(9): "kind(9)",
	} {
		if k.String() != want {
			t.Fatalf("%d -> %q", k, k.String())
		}
	}
}
