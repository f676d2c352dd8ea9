package jobs

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"runtime/metrics"
	"testing"

	"microlonys/internal/core"
	"microlonys/internal/mocoder"
	"microlonys/media"
)

// liveHeap is the live heap after a collection, read the way perfbench
// reads its mem_peak_mb.
func liveHeap() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// TestRetainedArchiveHeap measures what a daemon keeps per archived
// frame. The Manager keeps every succeeded job's Result, so each archive
// job's volume stays reachable; the live heap those volumes add, over the
// frames they hold, must stay under W·H/4 bytes per frame. Clean emblems
// are stored at one bit per pixel (W·H/8 bytes); a volume stored at one
// byte per pixel would hold W·H.
func TestRetainedArchiveHeap(t *testing.T) {
	prof := media.Tiny()
	opts := core.DefaultOptions(prof)
	opts.Compress = false // raw, so the payload fills frames
	payload := testPayload(40 * mocoder.Capacity(prof.Layout))
	m := newManager(t, Config{Workers: 1})
	defer drain(t, m)

	var kept []*core.Archived
	archive := func() int {
		id, err := m.Submit(Request{
			Kind:           KindArchive,
			Source:         func(context.Context) (io.Reader, error) { return bytes.NewReader(payload), nil },
			ArchiveOptions: opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := m.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, res.Archived)
		return res.Archived.Volume.FrameCount()
	}
	archive() // the first job also fills the encoder's and the pools' one-time state
	before := liveHeap()
	const jobs = 4
	frames := 0
	for i := 0; i < jobs; i++ {
		frames += archive()
	}
	grown := int64(liveHeap()) - int64(before)
	perFrame := grown / int64(frames)
	limit := int64(prof.FrameW * prof.FrameH / 4)
	t.Logf("%d archive jobs, %d frames of %dx%d: heap grew %d B, %d B per frame (limit %d, pixels %d)",
		jobs, frames, prof.FrameW, prof.FrameH, grown, perFrame, limit, prof.FrameW*prof.FrameH)
	if perFrame >= limit {
		t.Fatalf("each retained frame adds %d B of live heap, want under W·H/4 = %d B", perFrame, limit)
	}
	runtime.KeepAlive(kept)
}
