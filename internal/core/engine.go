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
	"microlonys/internal/slots"
	"microlonys/media"
)

// frameAddr is one entry of a frame plan: the sheet to scan and the slot
// on it. A full restore plans every frame of the volume, a query only the
// data frames its span occupies (and the rest of a group it must recover),
// an index probe one reserved slot, and salvage every frame of the bag.
type frameAddr struct {
	sheet, slot int
}

// volumePlan lists v's sheets and plans every frame in global index order:
// plan[i] addresses global frame i. It is the full restore's plan, and the
// address table queries pick their planned frames from.
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
// parallel per-frame task — a scan feeds exactly one decode, so splitting
// them would only buffer full-resolution frame images between two stages
// of the same fan-out — that runs holding a frame slot (slots.Run).
// Workers decode frames in any order; one consumer goroutine drains an
// ordered frontier and hands each result to consume in strict plan
// order, then releases its payload (consume copies what it keeps).
// Whatever consume builds is therefore identical at any worker count and
// any load. A frame that fails to decode is a result, not an error — that
// is what the outer code is for — but a frame that cannot even be
// scanned, a consume error or cancellation stops the run; every such
// error matches ErrRestore. A panic in a task or in consume stops the run
// too, and is re-raised here once the workers and the consumer have
// exited.
func decodeFrames(ctx context.Context, workers int, sheets []*media.Medium, plan []frameAddr, d *frameDecoder, consume func(k int, res *frameResult) error) error {
	n := len(plan)
	results := make([]frameResult, n)
	// Sized so workers never block on a momentarily busy consumer: twice
	// the live pool plus one group of slack.
	completed := make(chan int, 2*slots.Workers(workers, n)+mocoder.GroupData+mocoder.GroupParity)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var ps slots.Panics
	consumerErr := make(chan error, 1)
	go func() {
		fr := newFrontier(n)
		var cerr error
		for k := range completed {
			fr.complete(k)
			fr.drain(func(k int) {
				if cerr == nil {
					// A panic is an error here, so the loop keeps draining
					// and no worker blocks on a send nobody receives.
					if cerr = ps.Run(cancel, func() error { return consume(k, &results[k]) }); cerr != nil {
						cancel() // stop decoding frames nobody will consume
					}
				}
				results[k] = frameResult{} // release the payload
			})
		}
		consumerErr <- cerr
	}()
	// slots.ForEach re-raises a worker's panic; catching it here lets the
	// consumer exit before it is raised again.
	decErr := ps.Run(cancel, func() error {
		return slots.ForEach(ctx, workers, n, func(ctx context.Context, _, k int) error {
			a := plan[k]
			var err error
			if slots.Run(ctx, func() { err = d.decode(sheets[a.sheet], a.slot, &results[k]) }) != nil {
				return nil // cancelled while waiting for a slot; slots.ForEach reports why
			}
			if err != nil {
				return fmt.Errorf("%w: scanning sheet %d frame %d: %w", ErrRestore, a.sheet, a.slot, err)
			}
			completed <- k // after the slot is released: a stalled consumer holds none
			return nil
		})
	})
	close(completed)
	cerr := <-consumerErr
	ps.Rethrow()
	if cerr != nil {
		return cerr
	}
	if decErr != nil && !errors.Is(decErr, ErrRestore) {
		// Cancellation: wrap so callers can match either ErrRestore or the
		// context's error.
		return fmt.Errorf("%w: %w", ErrRestore, decErr)
	}
	return decErr
}

// frontier replays out-of-order completions in strict index order: the
// parallel stage reports indices as they finish, drain walks the
// contiguous prefix exactly once per index. It is the ordering half of the
// restore executor's serial consumer. The archive needs none: each of its
// frame tasks stores at a position fixed before the task starts.
type frontier struct {
	ready []bool
	next  int
}

func newFrontier(n int) *frontier { return &frontier{ready: make([]bool, n)} }

// complete marks index i finished. Each index must complete exactly once.
func (f *frontier) complete(i int) { f.ready[i] = true }

// drain calls fn(i) for every index that has become contiguous with the
// already-drained prefix, in increasing order.
func (f *frontier) drain(fn func(i int)) {
	for f.next < len(f.ready) && f.ready[f.next] {
		fn(f.next)
		f.next++
	}
}

// done reports whether every index has been drained.
func (f *frontier) done() bool { return f.next == len(f.ready) }

// decode scans and decodes slot of m into res on scratch borrowed for the
// frame. Only a scan failure is an error: a failed decode is recorded in
// res for the outer code. A panicking decode drops its scratch rather
// than return it in an unknown state.
func (d *frameDecoder) decode(m *media.Medium, slot int, res *frameResult) error {
	sc := scratchPool.Get().(*scanScratch)
	scan, err := m.ScanFrameInto(&sc.scan, slot)
	if err != nil {
		scratchPool.Put(sc)
		return err
	}
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
	scratchPool.Put(sc)
	return nil
}

// scanScratch is one frame task's reusable state for the fused
// scan+decode stage: the media scan buffers (the full-resolution frame
// images the scanner simulation renders through), the native decoder's
// per-frame scratch, and the emulated modes' machine state. A task holds
// one for the length of one frame, so the scratch is reused serially
// without locks — a steady-state native frame decode allocates only its
// payload and stats, and the scan stage is down to a handful of small
// per-frame allocations (the distortion RNG and the blur/warp lookup
// tables) instead of two or three full-resolution images.
type scanScratch struct {
	scan media.ScanScratch
	dec  mocoder.DecodeScratch
	emu  emuScratch
}

// scratchPool keeps idle scanScratch between frame tasks. A task borrows
// one only while it holds a frame slot, so live scan scratch never
// exceeds the slot count however many calls run, and back-to-back
// restores — the damage campaign's thousands of trials, a daemon's job
// stream — pay the buffers once instead of once per call, with no state
// for the caller to create, size or confine.
var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}
