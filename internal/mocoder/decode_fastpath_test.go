package mocoder

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"microlonys/internal/emblem"
	"microlonys/internal/rs"
	"microlonys/raster"
)

// This file pins the restructured scan-path decoder — concrete bilinear
// mapper, per-frame DecodeScratch, cached path/clock pairs, scratch-based
// findFrame/fitLine and the rs DecodeWith inner loop — to the
// pre-fast-path formulation, kept verbatim below: closure mapper, fresh
// allocations everywhere, per-call DataPath. Every decoded byte, header
// field, Stats field and error must match.

// decodeFullRef is the old package-level Decode, verbatim.
func decodeFullRef(img *raster.Gray, l emblem.Layout) ([]byte, emblem.Header, *Stats, error) {
	if err := l.Validate(); err != nil {
		return nil, emblem.Header{}, nil, err
	}
	st := &Stats{}
	st.Threshold = img.OtsuThreshold()

	corners, err := findFrameRef(img, st.Threshold, l)
	if err != nil {
		return nil, emblem.Header{}, st, err
	}

	rot, mapper, err := orientRef(img, st.Threshold, corners, l)
	if err != nil {
		return nil, emblem.Header{}, st, err
	}
	st.Rotation = rot * 90

	offs := clockOffsetsRef(img, mapper, l)

	path := l.DataPath()
	nbits := l.StreamBits()
	levels := make([]bool, 2*nbits)
	for i := 0; i < 2*nbits; i++ {
		p := path[i]
		levels[i] = sampleModuleOffRef(img, mapper, p.X, p.Y, l, offs[p.Y]) < float64(st.Threshold)
	}

	stream := make([]byte, (nbits+7)/8)
	suspect := make([]bool, len(stream))
	prev := false
	for i := 0; i < nbits; i++ {
		h1, h2 := levels[2*i], levels[2*i+1]
		if h1 == prev {
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

	hb := emblem.HeaderCopies * emblem.HeaderSize
	cb := codedBytes(l)
	coded := stream[hb:]
	codedSuspect := suspect[hb:]
	if len(coded) > cb {
		coded = coded[:cb]
	}
	lens := blockLens(cb)
	blocks, erasures := deinterleave(coded, codedSuspect, lens)

	payload := make([]byte, 0, Capacity(l))
	for i, cw := range blocks {
		eras := erasures[i]
		if len(eras) > rs.InnerParity {
			eras = nil
		}
		n, err := inner.Decode(cw, eras)
		if err != nil && len(eras) > 0 {
			n, err = inner.Decode(cw, nil)
		}
		if err != nil {
			return nil, hdr, st, errBlockRef(i, len(blocks), err)
		}
		st.BytesCorrected += n
		st.BlocksDecoded++
		payload = append(payload, cw[:lens[i]]...)
	}

	if int(hdr.PayloadLen) > len(payload) {
		return nil, hdr, st, errHeaderClaimRef(hdr, len(payload))
	}
	return payload[:hdr.PayloadLen], hdr, st, nil
}

// The reference's error constructors mirror the production fmt strings so
// messages compare equal.
func errBlockRef(i, n int, err error) error {
	return fmt.Errorf("%w: block %d/%d: %v", ErrUncorrectable, i+1, n, err)
}

func errHeaderClaimRef(hdr emblem.Header, capacity int) error {
	return fmt.Errorf("%w: header claims %d payload bytes, capacity %d", emblem.ErrHeader, hdr.PayloadLen, capacity)
}

func sampleModuleRef(img *raster.Gray, mapper func(u, v float64) point, mx, my int, l emblem.Layout) float64 {
	return sampleModuleOffRef(img, mapper, mx, my, l, 0)
}

func sampleModuleOffRef(img *raster.Gray, mapper func(u, v float64) point, mx, my int, l emblem.Layout, off float64) float64 {
	bm := float64(emblem.BorderModules + emblem.SeparatorModules)
	gw, gh := float64(l.GridW()), float64(l.GridH())
	var sum float64
	offs := [5][2]float64{{0, 0}, {-0.22, -0.22}, {0.22, -0.22}, {-0.22, 0.22}, {0.22, 0.22}}
	for _, o := range offs {
		u := (bm + float64(mx) + 0.5 + o[0]) / gw
		v := (bm + float64(my) + 0.5 + o[1]) / gh
		p := mapper(u, v)
		sum += img.SampleBilinear(p.x+off, p.y)
	}
	return sum / float64(len(offs))
}

func clockOffsetsRef(img *raster.Gray, mapper func(u, v float64) point, l emblem.Layout) []float64 {
	type pair struct{ a, b emblem.Point }
	path := l.DataPath()
	pairsByRow := make([][]pair, l.DataH)
	for i := 1; i+1 < len(path); i += 2 {
		a, b := path[i], path[i+1]
		if a.Y == b.Y {
			pairsByRow[a.Y] = append(pairsByRow[a.Y], pair{a, b})
		}
	}

	bm := float64(emblem.BorderModules + emblem.SeparatorModules)
	gw := float64(l.GridW())
	p0 := mapper(bm/gw, 0.5)
	p1 := mapper((bm+1)/gw, 0.5)
	pxPerModule := math.Hypot(p1.x-p0.x, p1.y-p0.y)
	if pxPerModule <= 0 {
		pxPerModule = float64(l.PxPerModule)
	}
	maxStep := 0.45 * pxPerModule

	sampleAt := func(p emblem.Point, off float64) float64 {
		u := (bm + float64(p.X) + 0.5) / gw
		v := (bm + float64(p.Y) + 0.5) / float64(l.GridH())
		q := mapper(u, v)
		return img.SampleBilinear(q.x+off, q.y)
	}
	contrast := func(pairs []pair, off float64) float64 {
		stride := 1 + len(pairs)/48
		var s float64
		for i := 0; i < len(pairs); i += stride {
			pr := pairs[i]
			s += math.Abs(sampleAt(pr.a, off) - sampleAt(pr.b, off))
		}
		return s
	}

	offs := make([]float64, l.DataH)
	prev := 0.0
	for y := 0; y < l.DataH; y++ {
		pairs := pairsByRow[y]
		if len(pairs) < 2 {
			offs[y] = prev
			continue
		}
		best, bestScore := prev, contrast(pairs, prev)
		step := maxStep / 3
		for d := -maxStep; d <= maxStep; d += step {
			if s := contrast(pairs, prev+d); s > bestScore {
				best, bestScore = prev+d, s
			}
		}
		for _, d := range []float64{-step / 2, -step / 4, step / 4, step / 2} {
			if s := contrast(pairs, best+d); s > bestScore {
				best, bestScore = best+d, s
			}
		}
		offs[y] = best
		prev = best
	}
	return offs
}

func findFrameRef(img *raster.Gray, thr byte, l emblem.Layout) ([4]point, error) {
	var corners [4]point

	approxPxX := float64(img.W) / float64(l.FullModulesW())
	approxPxY := float64(img.H) / float64(l.FullModulesH())
	runX := maxInt(2, int(approxPxX*float64(emblem.BorderModules)/2))
	runY := maxInt(2, int(approxPxY*float64(emblem.BorderModules)/2))

	scan := func(n int, intensity func(i, j int) byte, limit int, run int) []point {
		var pts []point
		lo, hi := n*15/100, n*85/100
		step := maxInt(1, (hi-lo)/160)
		for i := lo; i < hi; i += step {
			streak := 0
			for j := 0; j < limit; j++ {
				if intensity(i, j) < thr {
					streak++
					if streak >= run {
						j0 := j - streak + 1
						edge := float64(j0) - 0.5
						if j0 > 0 {
							a := float64(intensity(i, j0-1))
							b := float64(intensity(i, j0))
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

	left := scan(img.H, func(y, x int) byte { return img.At(x, y) }, img.W/2, runX)
	right := scan(img.H, func(y, x int) byte { return img.At(img.W-1-x, y) }, img.W/2, runX)
	top := scan(img.W, func(x, y int) byte { return img.At(x, y) }, img.H/2, runY)
	bottom := scan(img.W, func(x, y int) byte { return img.At(x, img.H-1-y) }, img.H/2, runY)

	minPts := 8
	if len(left) < minPts || len(right) < minPts || len(top) < minPts || len(bottom) < minPts {
		return corners, ErrNoEmblem
	}

	la, lb, ok1 := fitLineRef(left)
	ra, rbI, ok2 := fitLineRef(right)
	ta, tb, ok3 := fitLineRef(top)
	ba, bb, ok4 := fitLineRef(bottom)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return corners, ErrNoEmblem
	}
	rb := float64(img.W-1) - rbI
	ra = -ra
	bbAbs := float64(img.H-1) - bb
	baAbs := -ba

	intersect := func(ea, eb, fa, fb float64) (point, bool) {
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

	w := math.Hypot(tr.x-tl.x, tr.y-tl.y)
	h := math.Hypot(bl.x-tl.x, bl.y-tl.y)
	if w < 8 || h < 8 || w > float64(img.W)*1.2 || h > float64(img.H)*1.2 {
		return corners, ErrNoEmblem
	}
	corners = [4]point{tl, tr, br, bl}
	return corners, nil
}

func fitLineRef(pts []point) (a, b float64, ok bool) {
	fit := func(ps []point) (float64, float64, bool) {
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
	a, b, ok = fit(pts)
	if !ok {
		return
	}
	resid := make([]float64, len(pts))
	for i, p := range pts {
		resid[i] = math.Abs(p.y - (a*p.x + b))
	}
	mad := medianRef(resid)
	tol := math.Max(2, 3*mad)
	var kept []point
	for i, p := range pts {
		if resid[i] <= tol {
			kept = append(kept, p)
		}
	}
	if len(kept) >= 4 && len(kept) < len(pts) {
		if a2, b2, ok2 := fit(kept); ok2 {
			return a2, b2, true
		}
	}
	return a, b, true
}

func medianRef(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func orientRef(img *raster.Gray, thr byte, corners [4]point, l emblem.Layout) (int, func(u, v float64) point, error) {
	mapperForRef := func(rot int) func(u, v float64) point {
		c := corners
		p00 := c[rot%4]
		p10 := c[(rot+1)%4]
		p11 := c[(rot+2)%4]
		p01 := c[(rot+3)%4]
		return func(u, v float64) point {
			x := (1-u)*(1-v)*p00.x + u*(1-v)*p10.x + (1-u)*v*p01.x + u*v*p11.x
			y := (1-u)*(1-v)*p00.y + u*(1-v)*p10.y + (1-u)*v*p01.y + u*v*p11.y
			return point{x, y}
		}
	}

	boxOrigins := [4][2]int{
		{0, 0},
		{l.DataW - emblem.CornerBox, 0},
		{l.DataW - emblem.CornerBox, l.DataH - emblem.CornerBox},
		{0, l.DataH - emblem.CornerBox},
	}

	bestRot, bestScore := -1, 1<<30
	for rot := 0; rot < 4; rot++ {
		m := mapperForRef(rot)
		score := 0
		for c := 0; c < 4; c++ {
			pat := emblem.CornerPattern(c)
			for y := 0; y < emblem.CornerBox; y++ {
				for x := 0; x < emblem.CornerBox; x++ {
					v := sampleModuleRef(img, m, boxOrigins[c][0]+x, boxOrigins[c][1]+y, l)
					got := v < float64(thr)
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
		return 0, nil, fmt.Errorf("%w: corner marks unreadable (best score %d/%d)", ErrNoEmblem, bestScore, totalModules)
	}
	return bestRot, mapperForRef(bestRot), nil
}

// ---- the differential itself -----------------------------------------

// checkDecodeFrame decodes img through the shared scratch and through the
// reference and compares payload, header, stats and error.
func checkDecodeFrame(t *testing.T, s *DecodeScratch, img *raster.Gray, l emblem.Layout, label string) {
	t.Helper()
	gotP, gotH, gotSt, gotErr := DecodeWith(s, img, l)
	wantP, wantH, wantSt, wantErr := decodeFullRef(img, l)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: fast err %v, reference err %v", label, gotErr, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: fast err %q, reference err %q", label, gotErr, wantErr)
	}
	if gotH != wantH {
		t.Fatalf("%s: header %+v, reference %+v", label, gotH, wantH)
	}
	if (gotSt == nil) != (wantSt == nil) {
		t.Fatalf("%s: stats nilness differs", label)
	}
	if gotSt != nil && *gotSt != *wantSt {
		t.Fatalf("%s: stats %+v, reference %+v", label, *gotSt, *wantSt)
	}
	if !bytes.Equal(gotP, wantP) {
		t.Fatalf("%s: payload differs from reference (%d vs %d bytes)", label, len(gotP), len(wantP))
	}
}

// jitterImage applies a deterministic synthetic scan distortion (sub-pixel
// warp + noise) without importing media (which would cycle): enough to
// drive the clock-offset tracker and the inner code off the clean path.
func jitterImage(img *raster.Gray, seed int64, jitterPx, noise float64) *raster.Gray {
	rng := rand.New(rand.NewSource(seed))
	shifts := make([]float64, img.H)
	cur := 0.0
	for y := range shifts {
		cur += rng.NormFloat64() * jitterPx / 18
		if cur > jitterPx {
			cur = jitterPx
		}
		if cur < -jitterPx {
			cur = -jitterPx
		}
		shifts[y] = cur
	}
	out := img.Warp(func(x, y float64) (float64, float64) {
		yi := int(y)
		if yi >= 0 && yi < len(shifts) {
			x += shifts[yi]
		}
		return x, y
	})
	if noise > 0 {
		for i := range out.Pix {
			v := float64(out.Pix[i]) + rng.NormFloat64()*noise
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			out.Pix[i] = byte(v)
		}
	}
	return out
}

// TestDecodeWithDifferential pins DecodeWith to the reference decoder on
// clean, rotated, stream-damaged and scan-distorted frames across the
// fast-path layouts — one scratch reused throughout, so state from any
// frame leaking into the next would be caught.
func TestDecodeWithDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	var s DecodeScratch
	for li, l := range fastLayouts {
		payload := make([]byte, Capacity(l))
		rng.Read(payload)
		hdr := emblem.Header{Kind: emblem.KindData, Index: uint16(li), GroupID: 9, GroupData: 17, GroupParity: 3}
		img, err := Encode(payload, hdr, l)
		if err != nil {
			t.Fatal(err)
		}

		checkDecodeFrame(t, &s, img, l, "clean")
		for rot := 1; rot < 4; rot++ {
			checkDecodeFrame(t, &s, img.Rotate90(rot), l, "rotated")
		}
		checkDecodeFrame(t, &s, jitterImage(img, int64(li)+1, 0.8, 3), l, "jitter+noise")
		checkDecodeFrame(t, &s, img.Resize(img.W*3/2, img.H*3/2), l, "rescaled")

		// Inner-code errors within and beyond capacity.
		for _, frac := range []float64{0.03, 0.07, 0.12} {
			spec := Spec(l)
			dmg, err := EncodeDamaged(payload, hdr, l, func(stream []byte) {
				r := rand.New(rand.NewSource(int64(li)*31 + int64(frac*100)))
				for blk, dataLen := range spec.BlockDataLens {
					nErr := int(frac * float64(dataLen))
					for _, j := range r.Perm(dataLen)[:nErr] {
						stream[spec.StreamPos(blk, j)] ^= 0xA5
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			checkDecodeFrame(t, &s, dmg, l, "damaged")
		}

		// No emblem at all.
		checkDecodeFrame(t, &s, raster.New(l.ImageW(), l.ImageH()), l, "blank")
	}
}

// TestDecodeWithReuseAcrossLayouts re-decodes alternating layouts through
// one scratch and compares against fresh Decode calls: cached geometry
// must track the layout.
func TestDecodeWithReuseAcrossLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	var s DecodeScratch
	for trial := 0; trial < 12; trial++ {
		l := fastLayouts[trial%len(fastLayouts)]
		payload := make([]byte, 1+rng.Intn(Capacity(l)))
		rng.Read(payload)
		hdr := emblem.Header{Kind: emblem.KindRaw, Index: uint16(trial)}
		img, err := Encode(payload, hdr, l)
		if err != nil {
			t.Fatal(err)
		}
		gotP, gotH, _, err := DecodeWith(&s, img, l)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantP, wantH, _, err := Decode(img, l)
		if err != nil {
			t.Fatalf("trial %d fresh: %v", trial, err)
		}
		if !bytes.Equal(gotP, wantP) || gotH != wantH {
			t.Fatalf("trial %d: reused scratch differs from fresh decode", trial)
		}
	}
}

// TestDeinterleaveIntoMatches pins the scratch deinterleave to the
// allocating one, including short streams (trailing erasures).
func TestDeinterleaveIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	var s DecodeScratch
	for trial := 0; trial < 40; trial++ {
		lens := make([]int, 1+rng.Intn(4))
		total := 0
		for i := range lens {
			lens[i] = 1 + rng.Intn(rs.InnerData)
			total += lens[i] + rs.InnerParity
		}
		streamLen := total
		if rng.Intn(3) == 0 {
			streamLen = rng.Intn(total + 1) // truncated stream
		}
		stream := make([]byte, streamLen)
		rng.Read(stream)
		suspect := make([]bool, streamLen)
		for i := range suspect {
			suspect[i] = rng.Intn(10) == 0
		}

		wantB, wantE := deinterleave(stream, suspect, lens)
		gotB, gotE := deinterleaveInto(&s, stream, suspect, lens)

		if len(gotB) != len(wantB) || len(gotE) != len(wantE) {
			t.Fatalf("trial %d: shape mismatch", trial)
		}
		for i := range wantB {
			if !bytes.Equal(gotB[i], wantB[i]) {
				t.Fatalf("trial %d: block %d differs", trial, i)
			}
			if len(gotE[i]) != len(wantE[i]) {
				t.Fatalf("trial %d: erasures %d: %v vs %v", trial, i, gotE[i], wantE[i])
			}
			for j := range wantE[i] {
				if gotE[i][j] != wantE[i][j] {
					t.Fatalf("trial %d: erasures %d: %v vs %v", trial, i, gotE[i], wantE[i])
				}
			}
		}
	}
}

// TestDecodeWithAllocs checks the steady-state claim: with the layout
// fixed, a frame decode through a reused scratch allocates only the
// returned payload and Stats.
func TestDecodeWithAllocs(t *testing.T) {
	l := emblem.Layout{DataW: 100, DataH: 80, PxPerModule: 3}
	payload := make([]byte, Capacity(l))
	rand.New(rand.NewSource(84)).Read(payload)
	hdr := emblem.Header{Kind: emblem.KindRaw}
	img, err := Encode(payload, hdr, l)
	if err != nil {
		t.Fatal(err)
	}
	var s DecodeScratch
	if _, _, _, err := DecodeWith(&s, img, l); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, _, err := DecodeWith(&s, img, l); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state DecodeWith allocates %.0f objects, want ≤ 2 (payload + stats)", allocs)
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	l := emblem.Layout{DataW: 120, DataH: 90, PxPerModule: 3}
	payload := make([]byte, Capacity(l))
	rand.New(rand.NewSource(85)).Read(payload)
	hdr := emblem.Header{Kind: emblem.KindRaw}
	img, err := Encode(payload, hdr, l)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := Decode(img, l); err != nil {
				b.Fatal(err)
			}
		}
	})
	reused := func(img *raster.Gray) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var s DecodeScratch
			if _, _, _, err := DecodeWith(&s, img, l); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := DecodeWith(&s, img, l); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("reused", reused(img))
	// A scan-like frame — row jitter, noise and a blur, as in the
	// pre-scanned frames restores decode — unlike the clean render above.
	b.Run("scanned", reused(jitterImage(img, 86, 0.8, 3).BoxBlur(1)))
}
