// Package mocoder implements MOCoder, the media layout encoder/decoder of
// Micr'Olonys (§3.1).
//
// MOCoder performs the "physical" layout of bits across emblems on visual
// analog media. Unlike QR-style barcodes it carries no separate clocking
// system: the bit signal and clock signal are paired as in Differential
// Manchester encoding (each bit occupies two modules with a guaranteed
// transition at every bit boundary; a mid-cell transition encodes 1), giving
// robust local clock recovery. A thick black border and four large-scale
// corner marks allow fast, robust detection of emblem geometry and
// orientation in a scanned image.
//
// On top of the visual layer sits a bidimensional error-correction scheme
// with nested Reed-Solomon codes: the inner code RS(255,223) is interleaved
// across the emblem and corrects ≈7.2 % damaged user data per emblem; the
// outer code adds parity emblems (by default 3 per 17) so that any three
// emblems of a group of twenty can be lost altogether (see group.go).
package mocoder

import (
	"errors"
	"fmt"
	"sync/atomic"

	"microlonys/internal/emblem"
	"microlonys/internal/rs"
	"microlonys/raster"
)

// minRemainderBlock is the smallest shortened trailing RS block worth
// emitting (parity plus a useful amount of data).
const minRemainderBlock = 48

// inner is the shared inner-code instance (RS with 32 parity bytes).
var inner = rs.New(rs.InnerParity)

// blockLens returns the data lengths of the inner RS blocks that fill the
// coded-byte budget of the layout.
func blockLens(codedBytes int) []int {
	var lens []int
	full := codedBytes / rs.InnerTotal
	rem := codedBytes % rs.InnerTotal
	for i := 0; i < full; i++ {
		lens = append(lens, rs.InnerData)
	}
	if rem >= minRemainderBlock {
		lens = append(lens, rem-rs.InnerParity)
	}
	return lens
}

// codedBytes returns the number of whole bytes available to the RS stream.
func codedBytes(l emblem.Layout) int {
	bits := l.StreamBits() - emblem.HeaderCopies*emblem.HeaderSize*8
	if bits < 0 {
		return 0
	}
	return bits / 8
}

// Capacity returns the payload bytes one emblem of this layout carries.
func Capacity(l emblem.Layout) int {
	total := 0
	for _, n := range blockLens(codedBytes(l)) {
		total += n
	}
	return total
}

// geometry is what a layout fixes for MOCoder: the serpentine data path,
// each data row's clock-boundary pairs, the module sampler's per-tap grid
// coordinates and the inner-code block lengths. It is built once per
// layout and read-only after, so encoders and decoders on any goroutine
// share it (the path alone is megabytes at paper scale).
type geometry struct {
	layout     emblem.Layout
	path       []emblem.Point
	pairsByRow [][]clockPair
	uTab, vTab []float64 // [mx*5+tap], [my*5+tap]: a module's five taps side by side
	lens       []int     // inner-code block data lengths
	capacity   int       // payload bytes, the sum of lens
}

// lastGeometry is the last layout's geometry. Only one is kept, so a
// forged layout pins no more than one.
var lastGeometry atomic.Pointer[geometry]

// geometryFor returns l's geometry: g when it is l's, else the last
// layout's when that is l, else a new one, which becomes the last.
func geometryFor(g *geometry, l emblem.Layout) *geometry {
	if g != nil && g.layout == l {
		return g
	}
	if g = lastGeometry.Load(); g != nil && g.layout == l {
		return g
	}
	g = &geometry{layout: l, path: l.DataPath(), lens: blockLens(codedBytes(l))}
	for _, n := range g.lens {
		g.capacity += n
	}
	// Differential Manchester places a level transition between the
	// second half-module of each bit and the first half-module of the
	// next, i.e. between consecutive even/odd positions of the serpentine
	// path; serpentine turns (row changes) are skipped.
	g.pairsByRow = make([][]clockPair, l.DataH)
	for i := 1; i+1 < len(g.path); i += 2 {
		a, b := g.path[i], g.path[i+1]
		if a.Y == b.Y {
			g.pairsByRow[a.Y] = append(g.pairsByRow[a.Y], clockPair{a, b})
		}
	}
	// Tap entry [mx*5+k] (resp. [my*5+k]) holds exactly the grid
	// coordinate (bm + m + 0.5 + tap)/gridSpan, so the demodulation loop
	// loads what it would otherwise divide.
	bm := float64(emblem.BorderModules + emblem.SeparatorModules)
	gw, gh := float64(l.GridW()), float64(l.GridH())
	g.uTab = make([]float64, len(moduleOffsets)*l.DataW)
	g.vTab = make([]float64, len(moduleOffsets)*l.DataH)
	for k, o := range moduleOffsets {
		for mx := 0; mx < l.DataW; mx++ {
			g.uTab[mx*len(moduleOffsets)+k] = (bm + float64(mx) + 0.5 + o[0]) / gw
		}
		for my := 0; my < l.DataH; my++ {
			g.vTab[my*len(moduleOffsets)+k] = (bm + float64(my) + 0.5 + o[1]) / gh
		}
	}
	lastGeometry.Store(g)
	return g
}

// Encode renders payload into a fresh emblem image. The payload must fit
// Capacity(l); the header's PayloadLen field is set from len(payload).
func Encode(payload []byte, hdr emblem.Header, l emblem.Layout) (*raster.Gray, error) {
	return EncodeDamaged(payload, hdr, l, nil)
}

// EncodeDamaged renders payload like Encode, but first passes the coded
// stream (header block followed by the interleaved inner-code codewords)
// through corrupt — the failure-injection hook behind the §3.1 damage
// experiments (E5). A nil corrupt is a plain Encode.
func EncodeDamaged(payload []byte, hdr emblem.Header, l emblem.Layout, corrupt func(stream []byte)) (*raster.Gray, error) {
	return new(Encoder).EncodeDamaged(payload, hdr, l, corrupt)
}

// Encoder renders emblems through reusable per-frame scratch: the padded
// payload, the inner-code codeword and interleave buffers and the
// serialized bit stream, beside the layout's shared geometry. A zero
// Encoder is ready to use; it must not be used concurrently. In steady
// state (same layout frame after frame — the archival encode stage) an
// Encode allocates only the returned image.
type Encoder struct {
	geo    *geometry // the geometry of the layout last encoded
	padded []byte    // payload padded to capacity
	cw     []byte    // codewords, back to back
	blocks [][]byte  // slice views into cw, one per codeword
	stream []byte    // header copies + interleaved codewords
	bits   []byte    // serialized stream bits incl. filler
}

// Encode is the package-level Encode through the encoder's scratch.
func (e *Encoder) Encode(payload []byte, hdr emblem.Header, l emblem.Layout) (*raster.Gray, error) {
	return e.EncodeDamaged(payload, hdr, l, nil)
}

// EncodeDamaged is the package-level EncodeDamaged through the encoder's
// scratch. The stream passed to corrupt is owned by the encoder and only
// valid during the call.
func (e *Encoder) EncodeDamaged(payload []byte, hdr emblem.Header, l emblem.Layout, corrupt func(stream []byte)) (*raster.Gray, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	e.geo = geometryFor(e.geo, l)
	g := e.geo
	capBytes := g.capacity
	if capBytes == 0 {
		return nil, fmt.Errorf("mocoder: layout %dx%d too small for any payload", l.DataW, l.DataH)
	}
	if len(payload) > capBytes {
		return nil, fmt.Errorf("mocoder: payload %d bytes exceeds capacity %d", len(payload), capBytes)
	}
	hdr.Version = emblem.Version
	hdr.PayloadLen = uint32(len(payload))

	// Pad payload to capacity and split into inner-code blocks, encoding
	// each codeword (data || parity) into the reused back-to-back buffer.
	e.padded = append(e.padded[:0], payload...)
	for len(e.padded) < capBytes {
		e.padded = append(e.padded, 0)
	}
	total := capBytes + len(g.lens)*rs.InnerParity
	if cap(e.cw) < total {
		e.cw = make([]byte, 0, total)
	} else {
		e.cw = e.cw[:0]
	}
	e.blocks = e.blocks[:0]
	off := 0
	for _, n := range g.lens {
		e.cw = append(e.cw, e.padded[off:off+n]...)
		start := len(e.cw)
		for i := 0; i < rs.InnerParity; i++ {
			e.cw = append(e.cw, 0)
		}
		inner.EncodeInto(e.cw[start:], e.padded[off:off+n])
		e.blocks = append(e.blocks, e.cw[start-n:start+rs.InnerParity])
		off += n
	}

	// Byte-interleave the codewords so that contiguous damage on the
	// medium spreads across blocks.
	e.stream = e.stream[:0]
	for c := 0; c < emblem.HeaderCopies; c++ {
		e.stream = hdr.AppendMarshal(e.stream)
	}
	e.stream = appendInterleave(e.stream, e.blocks)

	if corrupt != nil {
		corrupt(e.stream)
	}

	// Serialize to bits, pad with alternating filler to the full path.
	e.bits = appendStreamBits(e.bits[:0], e.stream, l.StreamBits())

	return render(e.bits, g), nil
}

// appendStreamBits appends stream followed by alternating 0/1 filler bits
// up to nbits total (MSB-first, the final partial byte zero-padded) — the
// exact byte sequence bitio.Writer produces for WriteBytes(stream) plus
// WriteBit(0),WriteBit(1),… (pinned by TestAppendStreamBitsDifferential).
func appendStreamBits(dst, stream []byte, nbits int) []byte {
	dst = append(dst, stream...)
	fill := nbits - len(stream)*8
	for fill >= 8 {
		dst = append(dst, 0x55) // 01010101, filler starts at a byte boundary
		fill -= 8
	}
	if fill > 0 {
		b := byte(0x55 >> (8 - fill))
		dst = append(dst, b<<(8-fill))
	}
	return dst
}

// interleave merges codewords round-robin by byte index; shorter blocks
// simply drop out of later rounds.
func interleave(blocks [][]byte) []byte {
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	return appendInterleave(make([]byte, 0, total), blocks)
}

// appendInterleave is interleave into a reused buffer.
func appendInterleave(dst []byte, blocks [][]byte) []byte {
	maxLen := 0
	for _, b := range blocks {
		if len(b) > maxLen {
			maxLen = len(b)
		}
	}
	for i := 0; i < maxLen; i++ {
		for _, b := range blocks {
			if i < len(b) {
				dst = append(dst, b[i])
			}
		}
	}
	return dst
}

// deinterleave reverses interleave given the codeword lengths. It also
// maps stream-level suspicion flags onto per-block erasure positions.
func deinterleave(stream []byte, suspect []bool, lens []int) (blocks [][]byte, erasures [][]int) {
	blocks = make([][]byte, len(lens))
	erasures = make([][]int, len(lens))
	idx := make([]int, len(lens))
	cwLens := make([]int, len(lens))
	maxLen := 0
	for i, n := range lens {
		cwLens[i] = n + rs.InnerParity
		blocks[i] = make([]byte, cwLens[i])
		if cwLens[i] > maxLen {
			maxLen = cwLens[i]
		}
	}
	pos := 0
	for i := 0; i < maxLen; i++ {
		for b := range blocks {
			if i < cwLens[b] {
				if pos < len(stream) {
					blocks[b][idx[b]] = stream[pos]
					if pos < len(suspect) && suspect[pos] {
						erasures[b] = append(erasures[b], idx[b])
					}
				} else {
					// Stream shorter than expected: mark as erasure.
					erasures[b] = append(erasures[b], idx[b])
				}
				idx[b]++
				pos++
			}
		}
	}
	return blocks, erasures
}

// deinterleaveInto is deinterleave through the decode scratch: codewords
// land back to back in s.cw (views in s.blocks) and the per-block erasure
// lists reuse s.erasures. Block b receives exactly one byte per
// round-robin round while the round index is inside its codeword, so the
// write index equals the round index — the same bytes deinterleave
// produces (pinned by TestDeinterleaveIntoMatches).
func deinterleaveInto(s *DecodeScratch, stream []byte, suspect []bool, lens []int) (blocks [][]byte, erasures [][]int) {
	total, maxLen := 0, 0
	for _, n := range lens {
		cwLen := n + rs.InnerParity
		total += cwLen
		if cwLen > maxLen {
			maxLen = cwLen
		}
	}
	if cap(s.cw) < total {
		s.cw = make([]byte, total)
	}
	s.cw = s.cw[:total]
	for i := range s.cw {
		s.cw[i] = 0
	}
	s.blocks = s.blocks[:0]
	off := 0
	for _, n := range lens {
		cwLen := n + rs.InnerParity
		s.blocks = append(s.blocks, s.cw[off:off+cwLen])
		off += cwLen
	}
	for len(s.erasures) < len(lens) {
		s.erasures = append(s.erasures, nil)
	}
	er := s.erasures[:len(lens)]
	for i := range er {
		er[i] = er[i][:0]
	}
	pos := 0
	for i := 0; i < maxLen; i++ {
		for b := range s.blocks {
			if i < len(s.blocks[b]) {
				if pos < len(stream) {
					s.blocks[b][i] = stream[pos]
					if pos < len(suspect) && suspect[pos] {
						er[b] = append(er[b], i)
					}
				} else {
					// Stream shorter than expected: mark as erasure.
					er[b] = append(er[b], i)
				}
				pos++
			}
		}
	}
	return s.blocks, er
}

// render paints the emblem of layout g.layout: quiet zone, border ring,
// separator, corner marks and the Differential-Manchester data modules
// along g.path. Black data modules are written as pixel rows straight
// into Pix, and the bit stream is read inline — callers serialize exactly
// StreamBits bits, so there is no out-of-bits path. The image is
// byte-identical to the per-module FillRect reference formulation (pinned
// by TestEncodeFastRender).
func render(bits []byte, g *geometry) *raster.Gray {
	l, path := g.layout, g.path
	px := l.PxPerModule
	img := raster.New(l.ImageW(), l.ImageH())
	pix := img.Pix
	w := img.W

	// Border ring (between quiet zone and separator).
	q, b := emblem.QuietModules, emblem.BorderModules
	fw, fh := l.FullModulesW(), l.FullModulesH()
	img.FillRect(q*px, q*px, (fw-q)*px, (fh-q)*px, 0)               // outer black rect
	img.FillRect((q+b)*px, (q+b)*px, (fw-q-b)*px, (fh-q-b)*px, 255) // punch out interior
	m := emblem.MarginModules

	// Corner marks.
	corners := [4][2]int{
		{0, 0},
		{l.DataW - emblem.CornerBox, 0},
		{l.DataW - emblem.CornerBox, l.DataH - emblem.CornerBox},
		{0, l.DataH - emblem.CornerBox},
	}
	for c, origin := range corners {
		pat := emblem.CornerPattern(c)
		for y := 0; y < emblem.CornerBox; y++ {
			for x := 0; x < emblem.CornerBox; x++ {
				if pat[y][x] {
					blackModule(pix, w, (m+origin[0]+x)*px, (m+origin[1]+y)*px, px)
				}
			}
		}
	}

	// Data stream: differential Manchester along the serpentine path.
	level := 0
	nbits := l.StreamBits()
	for i := 0; i < nbits; i++ {
		bit := int(bits[i>>3]>>(7-i&7)) & 1
		half1 := 1 - level
		half2 := half1
		if bit == 1 {
			half2 = 1 - half1
		}
		level = half2
		if half1 == 1 {
			p := path[2*i]
			blackModule(pix, w, (m+p.X)*px, (m+p.Y)*px, px)
		}
		if half2 == 1 {
			p := path[2*i+1]
			blackModule(pix, w, (m+p.X)*px, (m+p.Y)*px, px)
		}
	}
	return img
}

// blackModule zeroes the px×px module whose top-left pixel is (x0, y0).
// Module coordinates are always in bounds by construction (the data
// region plus margins fits the image), so no clipping is needed.
func blackModule(pix []byte, w, x0, y0, px int) {
	base := y0*w + x0
	for r := 0; r < px; r++ {
		row := pix[base : base+px]
		for c := range row {
			row[c] = 0
		}
		base += w
	}
}

// ErrNoEmblem reports that no emblem geometry could be located in a scan.
var ErrNoEmblem = errors.New("mocoder: no emblem found in image")

// ErrUncorrectable reports damage beyond the inner code's capability.
var ErrUncorrectable = errors.New("mocoder: emblem damaged beyond inner-code correction")
