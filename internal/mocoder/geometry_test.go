package mocoder

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"microlonys/internal/emblem"
	"microlonys/raster"
)

// TestGeometryShared: what a layout fixes (the data path, the clock
// pairs, the sampler's tap tables, the inner-code blocks) is built once
// per layout and shared. A decode through a fresh DecodeScratch on a
// layout already decoded allocates less than that layout's data path
// alone; concurrent first users of a layout all encode and decode it as
// the reference formulations do; and one Encoder and one DecodeScratch
// alternating between two layouts round-trip at both.
func TestGeometryShared(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	frame := func(l emblem.Layout, index uint16) ([]byte, emblem.Header, *raster.Gray) {
		payload := make([]byte, Capacity(l))
		rng.Read(payload)
		// The header as Encode writes it, so a decode returns it whole.
		hdr := emblem.Header{Version: emblem.Version, Kind: emblem.KindRaw, Index: index, PayloadLen: uint32(len(payload))}
		img, err := encodeDamagedRef(payload, hdr, l, nil)
		if err != nil {
			t.Fatal(err)
		}
		return payload, hdr, img
	}
	// roundTrip encodes payload through e and decodes the reference image
	// through s, in either order.
	roundTrip := func(e *Encoder, s *DecodeScratch, l emblem.Layout, payload []byte, hdr emblem.Header, ref *raster.Gray, decodeFirst bool) error {
		decode := func() error {
			got, gotH, _, err := DecodeWith(s, ref, l)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payload) || gotH != hdr {
				return fmt.Errorf("layout %+v: decoded payload or header differs", l)
			}
			return nil
		}
		if decodeFirst {
			if err := decode(); err != nil {
				return err
			}
		}
		img, err := e.Encode(payload, hdr, l)
		if err != nil {
			return err
		}
		if !raster.Equal(img, ref) {
			return fmt.Errorf("layout %+v: encoded image differs from the reference", l)
		}
		if decodeFirst {
			return nil
		}
		return decode()
	}

	// perfbench's layout, decoded once: fresh scratch then builds no
	// geometry.
	l := fastLayouts[2]
	_, _, img := frame(l, 0)
	if _, _, _, err := Decode(img, l); err != nil {
		t.Fatal(err)
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, _, err := Decode(img, l); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perDecode := (after.TotalAlloc - before.TotalAlloc) / runs
	pathBytes := uint64(len(l.DataPath())) * uint64(unsafe.Sizeof(emblem.Point{}))
	if perDecode >= pathBytes {
		t.Fatalf("a decode through fresh scratch allocated %d B, not less than the layout's %d-B data path", perDecode, pathBytes)
	}

	// Concurrent first users: l is the last layout used, and each
	// goroutine takes another with a fresh Encoder and DecodeScratch.
	first := fastLayouts[3]
	const users = 4
	payloads := make([][]byte, users)
	hdrs := make([]emblem.Header, users)
	refs := make([]*raster.Gray, users)
	for i := range refs {
		payloads[i], hdrs[i], refs[i] = frame(first, uint16(i))
	}
	if _, _, _, err := Decode(img, l); err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	errs := make([]error, users)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[i] = roundTrip(new(Encoder), new(DecodeScratch), first, payloads[i], hdrs[i], refs[i], i%2 == 0)
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("first user %d: %v", i, err)
		}
	}

	// One Encoder and one DecodeScratch alternating between two layouts.
	var e Encoder
	var s DecodeScratch
	for i, l := range []emblem.Layout{fastLayouts[0], fastLayouts[3], fastLayouts[0], fastLayouts[3]} {
		payload, hdr, ref := frame(l, uint16(i))
		if err := roundTrip(&e, &s, l, payload, hdr, ref, i%2 == 1); err != nil {
			t.Fatalf("alternation %d: %v", i, err)
		}
	}
}
