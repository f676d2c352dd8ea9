package mocoder

import (
	"microlonys/internal/emblem"
	"microlonys/raster"
)

// Rectify resamples a scanned frame into the axis-aligned,
// nominal-resolution image the archived MODecode program expects.
//
// This is the "image preprocessing" step the Bootstrap assigns to the
// future user (§3.3: "the user converts the images containing emblems
// into a linear flat array of pixel intensities ... Any standard image
// handling libraries can be used"): locate the emblem's black border,
// undo rotation/scale by resampling onto the nominal grid, and hand the
// flat pixel array to the emulated decoder. All decoding — threshold,
// demodulation, error correction — still happens inside the archived
// instruction stream; this routine only normalises geometry, which any
// era's image tooling can do.
func Rectify(img *raster.Gray, l emblem.Layout) (*raster.Gray, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	thr := img.OtsuThreshold()
	corners, err := findFrame(&DecodeScratch{}, img, thr, l)
	if err != nil {
		return nil, err
	}
	_, mapper, err := orient(img, thr, corners, geometryFor(nil, l))
	if err != nil {
		return nil, err
	}

	px := float64(l.PxPerModule)
	q := float64(emblem.QuietModules)
	gw, gh := float64(l.GridW()), float64(l.GridH())
	out := raster.New(l.ImageW(), l.ImageH())
	// 3×3 supersampling approximates area integration over each output
	// pixel's footprint in the source — rectification usually downscales
	// (the scan is higher resolution than the nominal grid), and point
	// sampling there would alias module edges into the data field.
	const ss = 3
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			var sum float64
			n := 0
			for sy := 0; sy < ss; sy++ {
				v := ((float64(y)+(float64(sy)+0.5)/ss)/px - q) / gh
				for sx := 0; sx < ss; sx++ {
					u := ((float64(x)+(float64(sx)+0.5)/ss)/px - q) / gw
					if u < 0 || u > 1 || v < 0 || v > 1 {
						sum += 255 // quiet zone is white
					} else {
						p := mapper.mapUV(u, v)
						sum += img.SampleBilinear(p.x, p.y)
					}
					n++
				}
			}
			out.Pix[y*out.W+x] = clampToByte(sum / float64(n))
		}
	}
	return out, nil
}

func clampToByte(v float64) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}
