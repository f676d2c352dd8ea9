package mocoder

import (
	"fmt"
	"math"
	"sort"

	"microlonys/internal/emblem"
	"microlonys/internal/rs"
	"microlonys/raster"
)

// Stats reports how hard the decoder had to work on a scan — the
// experiment harness uses it to locate correction cliffs.
type Stats struct {
	Threshold       byte // binarisation threshold used
	Rotation        int  // detected orientation (0, 90, 180, 270 degrees CW)
	ClockViolations int  // Differential-Manchester boundary violations
	BytesCorrected  int  // inner-code errata corrected
	BlocksDecoded   int
}

type point struct{ x, y float64 }

// bilinearMapper maps emblem-relative (u, v) grid coordinates into image
// space by bilinear interpolation between the four detected frame
// corners. It is a concrete value — not a closure — so mapUV inlines
// into the sampling loops that call it tens of thousands of times per
// frame.
type bilinearMapper struct {
	p00, p10, p01, p11 point
}

// mapperFor builds the mapper for a rotation: corner order is the
// detected [TL, TR, BR, BL] in image space; the emblem's own TL sits at
// detected index rot.
func mapperFor(corners [4]point, rot int) bilinearMapper {
	c := corners
	return bilinearMapper{
		p00: c[rot%4],
		p10: c[(rot+1)%4],
		p11: c[(rot+2)%4],
		p01: c[(rot+3)%4],
	}
}

func (m *bilinearMapper) mapUV(u, v float64) point {
	x := (1-u)*(1-v)*m.p00.x + u*(1-v)*m.p10.x + (1-u)*v*m.p01.x + u*v*m.p11.x
	y := (1-u)*(1-v)*m.p00.y + u*(1-v)*m.p10.y + (1-u)*v*m.p01.y + u*v*m.p11.y
	return point{x, y}
}

// moduleSampler samples data-region modules through a mapper with the
// grid constants (border offset, grid span) hoisted once per decode and
// the per-module grid coordinates u, v precomputed per tap (the layout
// geometry's uTab/vTab) — ten divisions per module in the demodulation
// loop become two table loads.
type moduleSampler struct {
	img        *raster.Gray
	m          bilinearMapper
	bm, gw, gh float64
	uTab, vTab []float64 // [mx*5+tap], [my*5+tap]: a module's five taps side by side
}

func newModuleSampler(img *raster.Gray, m bilinearMapper, g *geometry) moduleSampler {
	return moduleSampler{
		img:  img,
		m:    m,
		bm:   float64(emblem.BorderModules + emblem.SeparatorModules),
		gw:   float64(g.layout.GridW()),
		gh:   float64(g.layout.GridH()),
		uTab: g.uTab,
		vTab: g.vTab,
	}
}

// pixFloat[b] is float64(b): the sampling loops load a pixel's level
// from this table instead of converting the byte, the same value with
// fewer instructions.
var pixFloat = func() (t [256]float64) {
	for b := range t {
		t[b] = float64(b)
	}
	return t
}()

// moduleOffsets are the five supersampling taps that ride out noise and
// sub-pixel grid error.
var moduleOffsets = [5][2]float64{{0, 0}, {-0.22, -0.22}, {0.22, -0.22}, {-0.22, 0.22}, {0.22, 0.22}}

// sampleOff returns the mean intensity of data module (mx, my),
// supersampled at five points, with an additional image-horizontal offset
// (pixels) — the per-row correction recovered from the clock signal.
//
// The mapper and the interior bilinear sample are expanded inline — the
// same expressions mapUV and raster.SampleBilinear evaluate, in the same
// order, so the result is bit-identical (TestDecodeWithDifferential pins
// this against the closure/SampleBilinear reference) — because this loop
// runs five times per module across every data module of every frame.
//
// The interior test needs no math.Floor: for sx ≥ 0, int(sx) truncates
// to floor(sx), and floor(sx)+1 < W exactly when sx < W−1, so the
// branch and its pixel indices are SampleBilinear's; negative, NaN and
// far-out coordinates take the fallback as before.
func (sm *moduleSampler) sampleOff(mx, my int, off float64) float64 {
	img := sm.img
	w := img.W
	pix := img.Pix
	fw, fh := float64(w-1), float64(img.H-1)
	us := sm.uTab[mx*len(moduleOffsets):][:len(moduleOffsets)]
	vs := sm.vTab[my*len(moduleOffsets):][:len(moduleOffsets)]
	var sum float64
	for k := range moduleOffsets {
		u, v := us[k], vs[k]
		sx := (1-u)*(1-v)*sm.m.p00.x + u*(1-v)*sm.m.p10.x + (1-u)*v*sm.m.p01.x + u*v*sm.m.p11.x
		sy := (1-u)*(1-v)*sm.m.p00.y + u*(1-v)*sm.m.p10.y + (1-u)*v*sm.m.p01.y + u*v*sm.m.p11.y
		sx += off
		if sx >= 0 && sy >= 0 && sx < fw && sy < fh {
			x0, y0 := int(sx), int(sy)
			fx := sx - float64(x0)
			fy := sy - float64(y0)
			i := y0*w + x0
			p00 := pixFloat[pix[i]]
			p10 := pixFloat[pix[i+1]]
			p01 := pixFloat[pix[i+w]]
			p11 := pixFloat[pix[i+w+1]]
			sum += p00*(1-fx)*(1-fy) + p10*fx*(1-fy) + p01*(1-fx)*fy + p11*fx*fy
		} else {
			sum += img.SampleBilinear(sx, sy)
		}
	}
	return sum / float64(len(moduleOffsets))
}

// sample is sampleOff with no horizontal correction.
func (sm *moduleSampler) sample(mx, my int) float64 { return sm.sampleOff(mx, my, 0) }

// clockPair is one guaranteed Differential-Manchester boundary: the
// second half-module of a bit and the first half-module of the next, on
// the same serpentine row.
type clockPair struct{ a, b emblem.Point }

// clockTap is one clock-boundary module centre mapped into image space,
// with the vertical half of its bilinear sample hoisted: the phase search
// only shifts a tap horizontally, so floor(y)·W, fy and 1−fy (and the
// vertical interior test) are fixed per row.
type clockTap struct {
	x, y   float64
	fy, gy float64 // y − floor(y) and 1 − fy
	row    int     // floor(y)·W, or −1 when the 2×2 neighbourhood leaves the image vertically
}

// DecodeScratch carries the decoder's reusable per-frame state: the
// demodulation buffers (half-module levels, stream bytes, suspicion
// flags, per-row clock offsets, the clock search's taps, probes and
// scores), the deinterleave codeword storage, the inner-code decode
// scratch and the frame-detection point buffers, beside the layout's
// shared geometry. A zero DecodeScratch is ready to use; it must not be
// shared between concurrent decodes. In steady state (same layout frame
// after frame — the restore scan stage) a DecodeWith allocates only the
// returned payload and Stats.
type DecodeScratch struct {
	geo      *geometry // the geometry of the layout last decoded
	levels   []bool
	stream   []byte
	suspect  []bool
	offs     []float64
	taps     []clockTap
	probes   []float64
	scores   []float64
	cw       []byte   // deinterleaved codewords, back to back
	blocks   [][]byte // slice views into cw
	erasures [][]int
	rss      rs.DecodeScratch

	// findFrame edge-point buffers (left, right, top, bottom) and the
	// line-fit residual/inlier scratch.
	pts   [4][]point
	resid []float64
	kept  []point
}

// Decode locates the emblem in a scanned image, demodulates the data
// stream and runs the inner Reed-Solomon correction. The caller supplies
// the layout the emblem was produced with (recorded in the Bootstrap
// document); the scan may be at any resolution or mild distortion.
func Decode(img *raster.Gray, l emblem.Layout) ([]byte, emblem.Header, *Stats, error) {
	return DecodeWith(&DecodeScratch{}, img, l)
}

// DecodeWith is Decode through reusable scratch, for callers decoding
// many frames in a loop (the restore scan stage threads one per worker).
// Results are identical to Decode.
func DecodeWith(s *DecodeScratch, img *raster.Gray, l emblem.Layout) ([]byte, emblem.Header, *Stats, error) {
	if err := l.Validate(); err != nil {
		return nil, emblem.Header{}, nil, err
	}
	s.geo = geometryFor(s.geo, l)
	g := s.geo
	st := &Stats{}
	st.Threshold = img.OtsuThreshold()

	corners, err := findFrame(s, img, st.Threshold, l)
	if err != nil {
		return nil, emblem.Header{}, st, err
	}

	rot, mapper, err := orient(img, st.Threshold, corners, g)
	if err != nil {
		return nil, emblem.Header{}, st, err
	}
	st.Rotation = rot * 90

	sm := newModuleSampler(img, mapper, g)

	// Local clock recovery (§3.1): Differential Manchester guarantees a
	// transition at every bit boundary, so each data row's sampling phase
	// can be re-locked against scanner transport jitter before the row is
	// demodulated — the self-clocking advantage over absolute grids.
	offs := clockOffsets(s, &sm, g)

	// Sample the data path and demodulate.
	path := g.path
	nbits := l.StreamBits()
	if cap(s.levels) < 2*nbits {
		s.levels = make([]bool, 2*nbits)
	}
	levels := s.levels[:2*nbits]
	thr := float64(st.Threshold)
	for i := 0; i < 2*nbits; i++ {
		p := path[i]
		levels[i] = sm.sampleOff(p.X, p.Y, offs[p.Y]) < thr
	}

	nStream := (nbits + 7) / 8
	if cap(s.stream) < nStream {
		s.stream = make([]byte, nStream)
	}
	stream := s.stream[:nStream]
	if cap(s.suspect) < nStream {
		s.suspect = make([]bool, nStream)
	}
	suspect := s.suspect[:nStream]
	for i := range stream {
		stream[i] = 0
		suspect[i] = false
	}
	prev := false
	for i := 0; i < nbits; i++ {
		h1, h2 := levels[2*i], levels[2*i+1]
		if h1 == prev { // missing boundary transition: clock violation
			st.ClockViolations++
			suspect[i/8] = true
		}
		if h1 != h2 {
			stream[i/8] |= 1 << uint(7-i%8)
		}
		prev = h2
	}

	hdr, err := emblem.RecoverHeader(stream)
	if err != nil {
		return nil, emblem.Header{}, st, err
	}

	// Strip the header block, correct the interleaved inner code.
	hb := emblem.HeaderCopies * emblem.HeaderSize
	cb := codedBytes(l)
	coded := stream[hb:]
	codedSuspect := suspect[hb:]
	if len(coded) > cb {
		coded = coded[:cb]
	}
	blocks, erasures := deinterleaveInto(s, coded, codedSuspect, g.lens)
	payload := make([]byte, 0, g.capacity)
	for i, cw := range blocks {
		eras := erasures[i]
		if len(eras) > rs.InnerParity {
			eras = nil // too many hints to be useful; rely on error decoding
		}
		n, err := inner.DecodeWith(&s.rss, cw, eras)
		if err != nil && len(eras) > 0 {
			// Erasure hints can be wrong (clock violations from damage
			// that did not corrupt the byte); retry errors-only.
			n, err = inner.DecodeWith(&s.rss, cw, nil)
		}
		if err != nil {
			return nil, hdr, st, fmt.Errorf("%w: block %d/%d: %v", ErrUncorrectable, i+1, len(blocks), err)
		}
		st.BytesCorrected += n
		st.BlocksDecoded++
		payload = append(payload, cw[:g.lens[i]]...)
	}

	if int(hdr.PayloadLen) > len(payload) {
		return nil, hdr, st, fmt.Errorf("%w: header claims %d payload bytes, capacity %d", emblem.ErrHeader, hdr.PayloadLen, len(payload))
	}
	return payload[:hdr.PayloadLen], hdr, st, nil
}

// clockOffsets estimates, for every data row, the image-horizontal
// sampling offset that re-locks the grid on that row's clock signal.
//
// The offset that maximises the summed contrast across the guaranteed
// bit-boundary transitions (the geometry's pairs) is the row's local
// clock phase. Scanner transport jitter is smooth, so each row's search
// window is centred on the previous row's estimate (a first-order
// tracking loop, as in floppy-disk data separators).
func clockOffsets(s *DecodeScratch, sm *moduleSampler, g *geometry) []float64 {
	l, pairsByRow := g.layout, g.pairsByRow

	// Image pixels per module, for scaling the search window.
	p0 := sm.m.mapUV(sm.bm/sm.gw, 0.5)
	p1 := sm.m.mapUV((sm.bm+1)/sm.gw, 0.5)
	pxPerModule := math.Hypot(p1.x-p0.x, p1.y-p0.y)
	if pxPerModule <= 0 {
		pxPerModule = float64(l.PxPerModule)
	}
	maxStep := 0.45 * pxPerModule // per-row drift bound (half a module)

	// tap maps a boundary module centre into image space — identical to
	// mapUV on ((bm + p + 0.5)/grid) — once per row rather than once per
	// probe, and hoists the vertical half of its bilinear sample.
	img := sm.img
	w, fh := img.W, float64(img.H-1)
	tap := func(p emblem.Point) clockTap {
		u := (sm.bm + float64(p.X) + 0.5) / sm.gw
		v := (sm.bm + float64(p.Y) + 0.5) / sm.gh
		q := sm.m.mapUV(u, v)
		t := clockTap{x: q.x, y: q.y, row: -1}
		if q.y >= 0 && q.y < fh {
			y0 := int(q.y)
			t.fy = q.y - float64(y0)
			t.gy, t.row = 1-t.fy, y0*w
		}
		return t
	}

	if cap(s.offs) < l.DataH {
		s.offs = make([]float64, l.DataH)
	}
	offs := s.offs[:l.DataH]
	prev := 0.0
	for y := 0; y < l.DataH; y++ {
		pairs := pairsByRow[y]
		if len(pairs) < 2 {
			offs[y] = prev
			continue
		}
		// A few dozen boundaries fix the phase; subsample wide rows so the
		// tracking cost stays proportional to row count, not area.
		stride := 1 + len(pairs)/48
		taps := s.taps[:0]
		for i := 0; i < len(pairs); i += stride {
			taps = append(taps, tap(pairs[i].a), tap(pairs[i].b))
		}
		s.taps = taps
		// Coarse search around the previous row's phase — the initial
		// probe and the whole window scored in one pass — then refine.
		step := maxStep / 3
		probes := append(s.probes[:0], prev)
		for d := -maxStep; d <= maxStep; d += step {
			probes = append(probes, prev+d)
		}
		s.probes = probes
		if cap(s.scores) < len(probes) {
			s.scores = make([]float64, len(probes))
		}
		scores := s.scores[:len(probes)]
		contrast(img, taps, probes, scores)
		best, bestScore := prev, scores[0]
		for j := 1; j < len(probes); j++ {
			if scores[j] > bestScore {
				best, bestScore = probes[j], scores[j]
			}
		}
		for _, d := range []float64{-step / 2, -step / 4, step / 4, step / 2} {
			probes[0] = best + d
			contrast(img, taps, probes[:1], scores[:1])
			if scores[0] > bestScore {
				best, bestScore = probes[0], scores[0]
			}
		}
		offs[y] = best
		prev = best
	}
	return offs
}

// contrast sets scores[j] to the summed contrast across the boundary tap
// pairs shifted horizontally by probes[j]. One pass over the taps serves
// every probe, and each score is summed in boundary order, so it is
// bit-identical to scoring that probe alone. The interior sample is
// raster.SampleBilinear's expression (same loads, same order) with the
// vertical half taken from the tap and sampleOff's floor-free test.
func contrast(img *raster.Gray, taps []clockTap, probes, scores []float64) {
	w, pix := img.W, img.Pix
	fw := float64(w - 1)
	for j := range scores {
		scores[j] = 0
	}
	for i := 0; i+1 < len(taps); i += 2 {
		for j, off := range probes {
			var v [2]float64
			for k := range v {
				t := &taps[i+k]
				sx := t.x + off
				if t.row >= 0 && sx >= 0 && sx < fw {
					x0 := int(sx)
					fx := sx - float64(x0)
					at := t.row + x0
					v[k] = pixFloat[pix[at]]*(1-fx)*t.gy + pixFloat[pix[at+1]]*fx*t.gy + pixFloat[pix[at+w]]*(1-fx)*t.fy + pixFloat[pix[at+w+1]]*fx*t.fy
				} else {
					v[k] = img.SampleBilinear(sx, t.y)
				}
			}
			scores[j] += math.Abs(v[0] - v[1])
		}
	}
}

// Edge-scan directions for findFrame: which border the scan walks toward.
const (
	edgeLeft = iota
	edgeRight
	edgeTop
	edgeBottom
)

// edgeScan walks inward from one side of the image along sampled scan
// lines, recording the subpixel position where the black border begins on
// each. Points are appended to pts as (lineCoord, edgeCoord).
func edgeScan(pts []point, img *raster.Gray, thr byte, side, n, limit, run int) []point {
	pts = pts[:0]
	// Every scanned coordinate is in bounds by construction (lines run
	// over the middle 70% of one axis, depth over at most half the
	// other), so the intensity reads index Pix directly — the same bytes
	// raster.At returns for in-range positions.
	pix, w, h := img.Pix, img.W, img.H
	at := func(i, j int) byte {
		switch side {
		case edgeLeft:
			return pix[i*w+j]
		case edgeRight:
			return pix[i*w+(w-1-j)]
		case edgeTop:
			return pix[j*w+i]
		default: // edgeBottom
			return pix[(h-1-j)*w+i]
		}
	}
	lo, hi := n*15/100, n*85/100
	step := maxInt(1, (hi-lo)/160)
	for i := lo; i < hi; i += step {
		streak := 0
		for j := 0; j < limit; j++ {
			if at(i, j) < thr {
				streak++
				if streak >= run {
					j0 := j - streak + 1
					// Subpixel refinement: interpolate where the
					// intensity profile crosses the threshold.
					edge := float64(j0) - 0.5
					if j0 > 0 {
						a := float64(at(i, j0-1))
						b := float64(at(i, j0))
						if a > b {
							edge = float64(j0) - 1 + (a-float64(thr))/(a-b)
						}
					}
					pts = append(pts, point{float64(i), edge})
					break
				}
			} else {
				streak = 0
			}
		}
	}
	return pts
}

// findFrame locates the outer corners of the black border by fitting lines
// to its four edges.
func findFrame(s *DecodeScratch, img *raster.Gray, thr byte, l emblem.Layout) ([4]point, error) {
	var corners [4]point

	// Expected border thickness in pixels, scale-free.
	approxPxX := float64(img.W) / float64(l.FullModulesW())
	approxPxY := float64(img.H) / float64(l.FullModulesH())
	runX := maxInt(2, int(approxPxX*float64(emblem.BorderModules)/2))
	runY := maxInt(2, int(approxPxY*float64(emblem.BorderModules)/2))

	s.pts[0] = edgeScan(s.pts[0], img, thr, edgeLeft, img.H, img.W/2, runX)
	s.pts[1] = edgeScan(s.pts[1], img, thr, edgeRight, img.H, img.W/2, runX)
	s.pts[2] = edgeScan(s.pts[2], img, thr, edgeTop, img.W, img.H/2, runY)
	s.pts[3] = edgeScan(s.pts[3], img, thr, edgeBottom, img.W, img.H/2, runY)
	left, right, top, bottom := s.pts[0], s.pts[1], s.pts[2], s.pts[3]

	minPts := 8
	if len(left) < minPts || len(right) < minPts || len(top) < minPts || len(bottom) < minPts {
		return corners, ErrNoEmblem
	}

	// Robust fits: edge = a·line + b.
	la, lb, ok1 := fitLine(s, left)
	ra, rbI, ok2 := fitLine(s, right)
	ta, tb, ok3 := fitLine(s, top)
	ba, bb, ok4 := fitLine(s, bottom)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return corners, ErrNoEmblem
	}
	// Convert mirrored scans back to absolute coordinates.
	rb := float64(img.W-1) - rbI
	ra = -ra
	bbAbs := float64(img.H-1) - bb
	baAbs := -ba

	// Intersections: left edge is x = la·y + lb; top edge is y = ta·x + tb.
	intersect := func(ea, eb, fa, fb float64) (point, bool) {
		// x = ea·y + eb ; y = fa·x + fb  ⇒  x = ea·(fa·x+fb) + eb
		den := 1 - ea*fa
		if math.Abs(den) < 1e-9 {
			return point{}, false
		}
		x := (ea*fb + eb) / den
		y := fa*x + fb
		return point{x, y}, true
	}
	tl, k1 := intersect(la, lb, ta, tb)
	tr, k2 := intersect(ra, rb, ta, tb)
	br, k3 := intersect(ra, rb, baAbs, bbAbs)
	bl, k4 := intersect(la, lb, baAbs, bbAbs)
	if !k1 || !k2 || !k3 || !k4 {
		return corners, ErrNoEmblem
	}

	// Sanity: the rectangle must occupy a plausible area.
	w := math.Hypot(tr.x-tl.x, tr.y-tl.y)
	h := math.Hypot(bl.x-tl.x, bl.y-tl.y)
	if w < 8 || h < 8 || w > float64(img.W)*1.2 || h > float64(img.H)*1.2 {
		return corners, ErrNoEmblem
	}
	corners = [4]point{tl, tr, br, bl}
	return corners, nil
}

// fitLS least-squares fits edge = a·line + b.
func fitLS(ps []point) (float64, float64, bool) {
	n := float64(len(ps))
	if n < 4 {
		return 0, 0, false
	}
	var sx, sy, sxx, sxy float64
	for _, p := range ps {
		sx += p.x
		sy += p.y
		sxx += p.x * p.x
		sxy += p.x * p.y
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-9 {
		return 0, 0, false
	}
	a := (n*sxy - sx*sy) / den
	return a, (sy - a*sx) / n, true
}

// fitLine least-squares fits edge = a·line + b with one outlier-rejection
// pass (dust in the quiet zone produces spurious early edges).
func fitLine(s *DecodeScratch, pts []point) (a, b float64, ok bool) {
	a, b, ok = fitLS(pts)
	if !ok {
		return
	}
	// Reject points deviating by more than max(2px, 3·MAD) and refit.
	s.resid = s.resid[:0]
	for _, p := range pts {
		s.resid = append(s.resid, math.Abs(p.y-(a*p.x+b)))
	}
	mad := median(s.resid)
	tol := math.Max(2, 3*mad)
	s.kept = s.kept[:0]
	for _, p := range pts {
		if math.Abs(p.y-(a*p.x+b)) <= tol {
			s.kept = append(s.kept, p)
		}
	}
	if len(s.kept) >= 4 && len(s.kept) < len(pts) {
		if a2, b2, ok2 := fitLS(s.kept); ok2 {
			return a2, b2, true
		}
	}
	return a, b, true
}

// median returns the median of v, reordering v in place — callers pass
// scratch whose order they no longer need, so the old per-call copy (and
// its O(n²) insertion sort, ~3% of a frame decode) is gone. Any sort
// yields the same order statistic, so the value is unchanged.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return v[len(v)/2]
}

// orient determines the emblem rotation by matching the four corner marks
// under each of the four possible rotations, returning the rotation index
// (multiples of 90° clockwise) and the grid→image mapper.
func orient(img *raster.Gray, thr byte, corners [4]point, g *geometry) (int, bilinearMapper, error) {
	l := g.layout
	boxOrigins := [4][2]int{
		{0, 0},
		{l.DataW - emblem.CornerBox, 0},
		{l.DataW - emblem.CornerBox, l.DataH - emblem.CornerBox},
		{0, l.DataH - emblem.CornerBox},
	}
	var pats [4][emblem.CornerBox][emblem.CornerBox]bool
	for c := range pats {
		pats[c] = emblem.CornerPattern(c)
	}

	fthr := float64(thr)
	bestRot, bestScore := -1, 1<<30
	for rot := 0; rot < 4; rot++ {
		sm := newModuleSampler(img, mapperFor(corners, rot), g)
		score := 0
		// The mismatch count only grows, so a rotation that has already
		// exceeded the best score cannot win (ties keep scoring, so the
		// strict < pick below sees the same scores) — wrong rotations
		// abandon after a handful of modules instead of sampling all four
		// corner marks.
		for c := 0; c < 4 && score <= bestScore; c++ {
			pat := &pats[c]
			for y := 0; y < emblem.CornerBox && score <= bestScore; y++ {
				for x := 0; x < emblem.CornerBox; x++ {
					v := sm.sample(boxOrigins[c][0]+x, boxOrigins[c][1]+y)
					got := v < fthr
					if got != pat[y][x] {
						score++
					}
				}
			}
		}
		if score < bestScore {
			bestScore, bestRot = score, rot
		}
	}
	totalModules := 4 * emblem.CornerBox * emblem.CornerBox
	if bestScore > totalModules/4 {
		return 0, bilinearMapper{}, fmt.Errorf("%w: corner marks unreadable (best score %d/%d)", ErrNoEmblem, bestScore, totalModules)
	}
	return bestRot, mapperFor(corners, bestRot), nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
