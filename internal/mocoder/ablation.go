package mocoder

import (
	"fmt"

	"microlonys/internal/bitio"
	"microlonys/internal/emblem"
	"microlonys/raster"
)

// Ablation support (experiment E9): "absolute" modulation maps each bit
// to a single module (dark = 1) with no self-clocking — the QR-style
// alternative §3.1 argues against. It shares the emblem geometry, header
// and Reed-Solomon layers, so any robustness difference against the
// Differential-Manchester emblems isolates the modulation choice. Both
// modes carry the same stream (absolute mode simply leaves the second
// half of the module path as filler), keeping capacity identical for a
// fair comparison.

// EncodeAbsolute renders payload with absolute (non-self-clocking)
// modulation.
func EncodeAbsolute(payload []byte, hdr emblem.Header, l emblem.Layout) (*raster.Gray, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	g := geometryFor(nil, l)
	if len(payload) > g.capacity {
		return nil, fmt.Errorf("mocoder: payload %d bytes exceeds capacity %d", len(payload), g.capacity)
	}
	hdr.Version = emblem.Version
	hdr.PayloadLen = uint32(len(payload))

	padded := make([]byte, g.capacity)
	copy(padded, payload)
	blocks := make([][]byte, len(g.lens))
	off := 0
	for i, n := range g.lens {
		blocks[i] = inner.EncodeFull(padded[off : off+n])
		off += n
	}
	stream := hdr.Marshal()
	for c := 1; c < emblem.HeaderCopies; c++ {
		stream = append(stream, hdr.Marshal()...)
	}
	stream = append(stream, interleave(blocks)...)

	w := bitio.NewWriter()
	w.WriteBytes(stream)
	for b := 0; w.Len() < l.StreamBits(); b ^= 1 {
		w.WriteBit(b)
	}
	bits := w.Bytes()

	// Render: identical chrome; data bits occupy one module each.
	px := l.PxPerModule
	img := raster.New(l.ImageW(), l.ImageH())
	mod := func(mx0, my0, mx1, my1 int, v byte) {
		img.FillRect(mx0*px, my0*px, mx1*px, my1*px, v)
	}
	q, bmod := emblem.QuietModules, emblem.BorderModules
	fw, fh := l.FullModulesW(), l.FullModulesH()
	mod(q, q, fw-q, fh-q, 0)
	mod(q+bmod, q+bmod, fw-q-bmod, fh-q-bmod, 255)
	m := emblem.MarginModules
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
					gx, gy := m+origin[0]+x, m+origin[1]+y
					mod(gx, gy, gx+1, gy+1, 0)
				}
			}
		}
	}
	path := g.path
	r := bitio.NewReader(bits)
	nbits := l.StreamBits()
	for i := 0; i < nbits; i++ {
		bit, err := r.ReadBit()
		if err != nil {
			bit = i & 1
		}
		if bit == 1 {
			p := path[i]
			gx, gy := m+p.X, m+p.Y
			mod(gx, gy, gx+1, gy+1, 0)
		}
	}
	// Remaining modules: alternating filler so overall darkness matches.
	for i := nbits; i < len(path); i++ {
		if i&1 == 0 {
			p := path[i]
			gx, gy := m+p.X, m+p.Y
			mod(gx, gy, gx+1, gy+1, 0)
		}
	}
	return img, nil
}

// DecodeAbsolute decodes an EncodeAbsolute emblem. Without the
// self-clocking layer there are no boundary transitions to flag erasures,
// so the inner code gets no hints.
func DecodeAbsolute(img *raster.Gray, l emblem.Layout) ([]byte, emblem.Header, *Stats, error) {
	if err := l.Validate(); err != nil {
		return nil, emblem.Header{}, nil, err
	}
	g := geometryFor(nil, l)
	st := &Stats{}
	st.Threshold = img.OtsuThreshold()

	corners, err := findFrame(&DecodeScratch{}, img, st.Threshold, l)
	if err != nil {
		return nil, emblem.Header{}, st, err
	}
	rot, mapper, err := orient(img, st.Threshold, corners, g)
	if err != nil {
		return nil, emblem.Header{}, st, err
	}
	st.Rotation = rot * 90

	sm := newModuleSampler(img, mapper, g)
	path := g.path
	nbits := l.StreamBits()
	stream := make([]byte, (nbits+7)/8)
	for i := 0; i < nbits; i++ {
		p := path[i]
		if sm.sample(p.X, p.Y) < float64(st.Threshold) {
			stream[i/8] |= 1 << uint(7-i%8)
		}
	}

	hdr, err := emblem.RecoverHeader(stream)
	if err != nil {
		return nil, emblem.Header{}, st, err
	}
	hb := emblem.HeaderCopies * emblem.HeaderSize
	cb := codedBytes(l)
	coded := stream[hb:]
	if len(coded) > cb {
		coded = coded[:cb]
	}
	blocks, _ := deinterleave(coded, make([]bool, len(coded)), g.lens)
	payload := make([]byte, 0, g.capacity)
	for i, cw := range blocks {
		n, err := inner.Decode(cw, nil)
		if err != nil {
			return nil, hdr, st, fmt.Errorf("%w: block %d/%d: %v", ErrUncorrectable, i+1, len(blocks), err)
		}
		st.BytesCorrected += n
		st.BlocksDecoded++
		payload = append(payload, cw[:g.lens[i]]...)
	}
	if int(hdr.PayloadLen) > len(payload) {
		return nil, hdr, st, fmt.Errorf("%w: header claims %d bytes", emblem.ErrHeader, hdr.PayloadLen)
	}
	return payload[:hdr.PayloadLen], hdr, st, nil
}
