package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"microlonys"
	"microlonys/internal/dbcoder"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/media"
	"microlonys/raster"
)

// timedReader and timedWriter are the source and sink spans: they add up
// the time the pipeline spends inside Read and Write.
type timedReader struct {
	r    io.Reader
	busy time.Duration
}

func (t *timedReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.busy += time.Since(t0)
	return n, err
}

type timedWriter struct {
	w    io.Writer
	busy time.Duration
}

func (t *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.w.Write(p)
	t.busy += time.Since(t0)
	return n, err
}

// replay describes one archive whose layers are replayed by calling each
// layer's public functions in turn, outside the pipeline.
type replay struct {
	data     []byte
	manifest microlonys.Manifest
	opts     microlonys.Options
	scanned  *media.Volume // the volume as the scanner sees it, damage included
	pre      *media.Volume // its pre-scanned copy

	// stats, when set, is a full restore of pre the replay must reconcile
	// with frame for frame; sheets > 0 replays only the first sheets.
	stats  *microlonys.RestoreStats
	sheets int
}

type replayedFrame struct {
	ok      bool
	payload []byte
	hdr     emblem.Header
}

type replayedGroup struct {
	data, parity int
	pos          map[int]int // group position → frame index
}

// run replays DBCoder, frame decode, re-encode, outer parity, outer
// recovery, placement and the scanner model, writing per-layer metrics into
// layers. It returns the busy time of the restore-side layers (decode,
// recovery, decompression), which core.restore_other_ms subtracts.
func (rp replay) run(layers map[string]float64) (time.Duration, error) {
	prof := rp.opts.Profile
	layout := prof.Layout
	capacity := prof.FrameCapacity()

	// DBCoder, with the restart-block size an indexed archive derives.
	blockBytes := rp.opts.GroupData * capacity
	if maxBlocks := capacity / 16; maxBlocks > 0 {
		if minBytes := (len(rp.data) + maxBlocks - 1) / maxBlocks; blockBytes < minBytes {
			blockBytes = minBytes
		}
	}
	t0 := time.Now()
	stream := dbcoder.CompressSeekableDepth(rp.data, dbcoder.DefaultDepth, blockBytes)
	layers["dbcoder.compress_ms"] = ms(time.Since(t0))
	if len(stream) != rp.manifest.StreamLen {
		return 0, fmt.Errorf("replay: DBCoder stream is %d B, the archive wrote %d B", len(stream), rp.manifest.StreamLen)
	}
	t0 = time.Now()
	raw, err := dbcoder.Decompress(stream)
	decompress := time.Since(t0)
	if err != nil || !bytes.Equal(raw, rp.data) {
		return 0, fmt.Errorf("replay: DBCoder round trip differs from the input (%v)", err)
	}
	layers["dbcoder.decompress_ms"] = ms(decompress)
	layers["dbcoder.ratio"] = float64(rp.manifest.RawLen) / float64(rp.manifest.StreamLen)

	n := rp.pre.FrameCount()
	if rp.sheets > 0 && rp.sheets < rp.pre.Sheets() {
		if n, err = rp.pre.SheetStart(rp.sheets); err != nil {
			return 0, err
		}
	}

	// Demodulation and inner RS on the pre-scanned frames.
	frames := make([]replayedFrame, n)
	var ss media.ScanScratch
	var ds mocoder.DecodeScratch
	var decodeBusy time.Duration
	failed, corrected := 0, 0
	for i := range frames {
		img, err := rp.pre.ScanFrameInto(&ss, i)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		payload, hdr, st, err := mocoder.DecodeWith(&ds, img, layout)
		decodeBusy += time.Since(t0)
		if err != nil {
			failed++
			continue
		}
		corrected += st.BytesCorrected
		frames[i] = replayedFrame{ok: true, payload: append([]byte(nil), payload...), hdr: hdr}
	}
	layers["mocoder.decode_ms_per_frame"] = ms(decodeBusy) / float64(n)
	layers["mocoder.frames_failed"] = float64(failed)
	layers["mocoder.bytes_corrected"] = float64(corrected)
	if st := rp.stats; st != nil && rp.sheets == 0 &&
		(n != st.FramesScanned || failed != st.FramesFailed || corrected != st.BytesCorrected) {
		return 0, fmt.Errorf("replay: decoded %d frames (%d failed, %d B corrected), restore reported %d (%d failed, %d B corrected)",
			n, failed, corrected, st.FramesScanned, st.FramesFailed, st.BytesCorrected)
	}

	// Emblem encode: each decoded frame re-encoded must be the stored frame.
	stored := rp.scanned.Clone()
	stored.SetScanner(media.Distortions{})
	encoded := make([]*raster.Gray, n)
	var encodeBusy time.Duration
	for i, f := range frames {
		if !f.ok {
			continue
		}
		t0 := time.Now()
		img, err := mocoder.Encode(f.payload, f.hdr, layout)
		encodeBusy += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("replay: encode frame %d: %w", i, err)
		}
		want, err := stored.ScanFrame(i)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(img.Pix, want.Pix) {
			return 0, fmt.Errorf("replay: re-encoded frame %d differs from the archived frame", i)
		}
		encoded[i] = img
	}
	if ok := countOK(frames); ok > 0 {
		layers["mocoder.encode_ms_per_frame"] = ms(encodeBusy) / float64(ok)
	}

	// Outer code: parity over complete groups, recovery where frames failed.
	var order []int
	groups := map[int]*replayedGroup{}
	for i, f := range frames {
		if !f.ok || f.hdr.Kind == emblem.KindCatalog || f.hdr.Kind == emblem.KindIndex {
			continue
		}
		id := int(f.hdr.GroupID)
		g := groups[id]
		if g == nil {
			g = &replayedGroup{data: int(f.hdr.GroupData), parity: int(f.hdr.GroupParity), pos: map[int]int{}}
			groups[id] = g
			order = append(order, id)
		}
		g.pos[int(f.hdr.GroupPos)] = i
	}
	padded := func(i int) []byte {
		p := make([]byte, capacity)
		copy(p, frames[i].payload)
		return p
	}
	var parityBusy, recoverBusy time.Duration
	parityGroups, recovered := 0, 0
	for _, id := range order {
		g := groups[id]
		members := make([][]byte, g.data+g.parity)
		for pos, i := range g.pos {
			members[pos] = padded(i)
		}
		if len(g.pos) < len(members) {
			t0 := time.Now()
			err := mocoder.RecoverGroup(members)
			recoverBusy += time.Since(t0)
			if err != nil {
				return 0, fmt.Errorf("replay: group %d: %w", id, err)
			}
			recovered++
		}
		t0 := time.Now()
		parity, err := mocoder.GroupParityPayloads(members[:g.data])
		parityBusy += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("replay: group %d parity: %w", id, err)
		}
		parityGroups++
		for k, p := range parity {
			if !bytes.Equal(p, members[g.data+k]) {
				return 0, fmt.Errorf("replay: group %d parity %d differs from the archived parity", id, k)
			}
		}
	}
	if parityGroups > 0 {
		layers["mocoder.parity_ms_per_group"] = ms(parityBusy) / float64(parityGroups)
	}
	if recovered > 0 {
		layers["mocoder.recover_ms_per_group"] = ms(recoverBusy) / float64(recovered)
	}
	if st := rp.stats; st != nil && rp.sheets == 0 && recovered != st.GroupsRecovered {
		return 0, fmt.Errorf("replay: recovered %d groups, restore reported %d", recovered, st.GroupsRecovered)
	}

	// Placement of every group whose frames all re-encoded.
	vol := media.NewVolume(prof, rp.opts.SheetFrames)
	if rp.opts.Catalog {
		if err := vol.EnableCatalog(); err != nil {
			return 0, err
		}
	}
	if rp.opts.Index {
		if err := vol.EnableIndex(); err != nil {
			return 0, err
		}
	}
	var placeBusy time.Duration
	placed := 0
	for _, id := range order {
		g := groups[id]
		run := make([]*raster.Gray, 0, len(g.pos))
		for pos := 0; pos < g.data+g.parity; pos++ {
			if i, ok := g.pos[pos]; ok {
				run = append(run, encoded[i])
			}
		}
		if len(run) < g.data+g.parity {
			continue
		}
		t0 := time.Now()
		if err := vol.WriteGroup(run); err != nil {
			return 0, fmt.Errorf("replay: place group %d: %w", id, err)
		}
		placeBusy += time.Since(t0)
		placed += len(run)
	}
	if placed > 0 {
		layers["media.place_ms_per_frame"] = ms(placeBusy) / float64(placed)
	}

	// The scanner model, which no timed operation runs.
	var scanBusy time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := rp.scanned.ScanFrameInto(&ss, i); err != nil {
			return 0, err
		}
		scanBusy += time.Since(t0)
	}
	layers["media.scan_ms_per_frame"] = ms(scanBusy) / float64(n)

	return decodeBusy + recoverBusy + decompress, nil
}

func countOK(frames []replayedFrame) int {
	n := 0
	for _, f := range frames {
		if f.ok {
			n++
		}
	}
	return n
}
