package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"microlonys/dynarisc"
	"microlonys/internal/bootstrap"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/media"
)

// frameAddr is one entry of a frame plan: the sheet to scan and the slot
// on it. A full restore plans every frame of the volume, a query only the
// frames of the groups it selects, an index probe one reserved slot, and
// salvage every frame of the bag.
type frameAddr struct {
	sheet, slot int
}

// volumePlan lists v's sheets and plans every frame in global index order:
// plan[i] addresses global frame i. It is the full restore's plan, and the
// address table queries pick their selected groups' frames from.
func volumePlan(v *media.Volume) ([]*media.Medium, []frameAddr) {
	sheets := make([]*media.Medium, v.Sheets())
	var plan []frameAddr
	for s := range sheets {
		sheets[s], _ = v.Sheet(s)
		for j := 0; j < sheets[s].FrameCount(); j++ {
			plan = append(plan, frameAddr{s, j})
		}
	}
	return sheets, plan
}

// frameResult is one planned frame's scan and decode outcome.
type frameResult struct {
	scanned   bool
	decoded   bool
	hdr       emblem.Header
	payload   []byte
	corrected int // inner-code corrections (native mode only)
}

// frameDecoder selects how planned frames decode: natively, or by running
// the archived MODecode program under emulation.
type frameDecoder struct {
	mode   Mode
	layout emblem.Layout
	moProg *dynarisc.Program // emulated modes only
}

// newFrameDecoder resolves the Bootstrap's decoder for mode; emulated modes
// need its MODecode program.
func newFrameDecoder(doc *bootstrap.Document, mode Mode) (*frameDecoder, error) {
	d := &frameDecoder{mode: mode, layout: doc.Layout}
	if mode != RestoreNative {
		var err error
		if d.moProg, err = doc.MODecodeProgram(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// decodeFrames is the restore executor, and the one implementation of
// every restore entry point: full restore, range and table queries, the
// index listing and salvage all run the scan and decode stages of the
// restoration pipeline (Figure 2b) through it, over their own frame plans
// and with at most `workers` workers. Scan and decode are fused into one
// parallel per-frame stage — a scan feeds exactly one decode, so splitting
// them would only buffer full-resolution frame images between two stages
// of the same fan-out. Workers decode frames in any order; one consumer
// goroutine drains an ordered frontier and hands each result to consume in
// strict plan order, then releases its payload (consume copies what it
// keeps). Whatever consume builds is therefore identical at any worker
// count. A frame that fails to decode is a result, not an error — that is
// what the outer code is for — but a frame that cannot even be scanned, a
// consume error or cancellation stops the run; every such error matches
// ErrRestore.
func decodeFrames(ctx context.Context, workers int, sheets []*media.Medium, plan []frameAddr, d *frameDecoder, consume func(k int, res *frameResult) error) error {
	n := len(plan)
	results := make([]frameResult, n)
	workers = resolveWorkers(workers, n)
	scratch := make([]*scanScratch, workers)
	for w := range scratch {
		scratch[w] = scratchPool.Get().(*scanScratch)
	}
	defer func() {
		for _, sc := range scratch {
			scratchPool.Put(sc)
		}
	}()
	// Sized so workers never block on a momentarily busy consumer: twice
	// the live pool plus one group of slack.
	completed := make(chan int, 2*workers+mocoder.GroupData+mocoder.GroupParity)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	consumerErr := make(chan error, 1)
	go func() {
		fr := newFrontier(n)
		var cerr error
		for k := range completed {
			fr.complete(k)
			fr.drain(func(k int) {
				if cerr == nil {
					if cerr = consume(k, &results[k]); cerr != nil {
						cancel() // stop decoding frames nobody will consume
					}
				}
				results[k] = frameResult{} // release the payload
			})
		}
		consumerErr <- cerr
	}()

	decErr := forEachFrame(ctx, workers, n, func(_ context.Context, worker, k int) error {
		sc := scratch[worker]
		a := plan[k]
		scan, err := sheets[a.sheet].ScanFrameInto(&sc.scan, a.slot)
		if err != nil {
			return fmt.Errorf("%w: scanning sheet %d frame %d: %w", ErrRestore, a.sheet, a.slot, err)
		}
		res := &results[k]
		res.scanned = true
		if d.mode == RestoreNative {
			var stats *mocoder.Stats
			res.payload, res.hdr, stats, err = mocoder.DecodeWith(&sc.dec, scan, d.layout)
			if stats != nil {
				res.corrected = stats.BytesCorrected
			}
		} else {
			res.payload, res.hdr, err = decodeFrameEmulated(&sc.emu, d.moProg, scan, d.layout, d.mode)
		}
		res.decoded = err == nil
		completed <- k
		return nil
	})
	close(completed)
	if err := <-consumerErr; err != nil {
		return err
	}
	if decErr != nil && !errors.Is(decErr, ErrRestore) {
		// Cancellation: wrap so callers can match either ErrRestore or the
		// context's error.
		return fmt.Errorf("%w: %w", ErrRestore, decErr)
	}
	return decErr
}

// scanScratch is one worker's reusable state for the fused scan+decode
// stage: the media scan buffers (the full-resolution frame images the
// scanner simulation renders through), the native decoder's per-frame
// scratch, and the emulated modes' machine state. Each worker id owns
// exactly one goroutine for a run (see forEachFrame), so the scratch is
// reused serially without locks — a steady-state native frame decode
// allocates only its payload and stats, and the scan stage is down to a
// handful of small per-frame allocations (the distortion RNG and the
// blur/warp lookup tables) instead of two or three full-resolution images.
type scanScratch struct {
	scan media.ScanScratch
	dec  mocoder.DecodeScratch
	emu  emuScratch
}

// scratchPool keeps idle scanScratch between runs: decodeFrames borrows
// one per worker and returns them when the run ends, so back-to-back
// restores — the damage campaign's thousands of trials, a job worker's
// queue — pay the buffers once instead of once per call, with no state
// for the caller to create, size or confine.
var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}
