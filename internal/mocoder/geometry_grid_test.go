package mocoder_test

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/media"
)

// TestDecodeRectifyShareGeometry: the emulated modes rectify a frame onto
// its layout at 3 px/module, beside native decodes at the profile's own
// pitch. Both read one data grid, so they share one geometry: alternating
// a fresh native Decode and Rectify on media.Tiny() allocates less than
// one data path more per pair than the same calls made in two runs.
func TestDecodeRectifyShareGeometry(t *testing.T) {
	l := media.Tiny().Layout
	rl := l
	rl.PxPerModule = 3
	payload := make([]byte, mocoder.Capacity(l))
	rand.New(rand.NewSource(5)).Read(payload)
	img, err := mocoder.Encode(payload, emblem.Header{Kind: emblem.KindRaw}, l)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, _, _, err := mocoder.Decode(img, l); err != nil {
			t.Fatal(err)
		}
	}
	rectify := func() {
		if _, err := mocoder.Rectify(img, rl); err != nil {
			t.Fatal(err)
		}
	}
	allocated := func(calls func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		calls()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}

	const pairs = 4
	decode()
	rectify()
	alternated := allocated(func() {
		for i := 0; i < pairs; i++ {
			decode()
			rectify()
		}
	})
	apart := allocated(func() {
		for i := 0; i < pairs; i++ {
			decode()
		}
		for i := 0; i < pairs; i++ {
			rectify()
		}
	})
	path := int64(l.DataW*l.DataH) * int64(unsafe.Sizeof(emblem.Point{}))
	if extra := (alternated - apart) / pairs; extra >= path {
		t.Fatalf("alternating Decode and Rectify allocated %d B more per pair than two runs, not less than one %d-B data path",
			extra, path)
	}
}
