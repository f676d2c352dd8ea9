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
	"microlonys/verisc"
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

// frameDecoder selects how planned frames decode, and how DBDecode runs:
// natively, or by running the archived programs under emulation.
type frameDecoder struct {
	mode   Mode
	layout emblem.Layout
	moProg *dynarisc.Program // the archived MODecode: emulated modes only
	emu    *verisc.Program   // the archived DynaRisc emulator: nested mode only
}

// newFrameDecoder resolves doc's decoders for mode: emulated modes need its
// MODecode program, and nested mode runs it on the DynaRisc emulator doc
// carries, not on the one this binary builds.
func newFrameDecoder(doc *bootstrap.Document, mode Mode) (*frameDecoder, error) {
	d := &frameDecoder{mode: mode, layout: doc.Layout}
	var err error
	if mode != RestoreNative {
		if d.moProg, err = doc.MODecodeProgram(); err != nil {
			return nil, fmt.Errorf("MODecode: %w", err)
		}
	}
	if mode == RestoreNested {
		if d.emu, err = doc.EmulatorProgram(); err != nil {
			return nil, fmt.Errorf("emulator: %w", err)
		}
	}
	return d, nil
}

// windowGroups and windowBytes size the restore executor's window, the
// frames it decodes before consume takes them. Eight outer-code groups of
// frames per worker keep every worker busy to the window's end on cores
// of unequal speed, and hold every query plan of small frames in one
// window. A worker's share of a window holds at most windowBytes of
// payload, though at least one frame: about one group of paper or cinema
// frames, which carry over 40 KB each.
const (
	windowGroups = 8
	windowBytes  = 1 << 20
)

// window is the executor's window, in frames, for a plan of n frames of
// layout l at the given worker count.
func window(workers, n int, l emblem.Layout) int {
	perWorker := windowBytes / max(1, mocoder.Capacity(l))
	perWorker = max(1, min(perWorker, windowGroups*(mocoder.GroupData+mocoder.GroupParity)))
	return perWorker * slots.Workers(workers, n)
}

// decodeFrames is the restore executor, and the one implementation of
// every restore entry point: full restore, range and table queries, the
// index listing and salvage all run the scan and decode stages of the
// restoration pipeline (Figure 2b) through it, over their own frame plans
// and with at most `workers` workers. Scan and decode are fused into one
// parallel per-frame task — a scan feeds exactly one decode, so splitting
// them would only buffer full-resolution frame images between two stages
// of the same fan-out — that runs holding a frame slot (slots.Run).
// The plan runs one window at a time: one slots.ForEach decodes the
// window's frames in any order, then consume takes them in strict plan
// order on the caller's goroutine and each payload is released (consume
// copies what it keeps). Whatever consume builds is therefore identical
// at any worker count and any load, and a consume that stalls holds
// neither a slot nor a worker. A frame that fails to decode is a result,
// not an error — that is what the outer code is for — but a frame that
// cannot even be scanned, a consume error or cancellation stops the run;
// every such error matches ErrRestore. A panic in a task or in consume
// reaches the caller with no worker left running.
func decodeFrames(ctx context.Context, workers int, sheets []*media.Medium, plan []frameAddr, d *frameDecoder, consume func(k int, res *frameResult) error) error {
	size := window(workers, len(plan), d.layout)
	results := make([]frameResult, min(size, len(plan)))
	for lo := 0; lo < len(plan); lo += size {
		win := plan[lo:min(lo+size, len(plan))]
		err := slots.ForEach(ctx, workers, len(win), func(ctx context.Context, _, i int) error {
			a := win[i]
			var err error
			if slots.Run(ctx, func() { err = d.decode(sheets[a.sheet], a.slot, &results[i]) }) != nil {
				return nil // cancelled while waiting for a slot; slots.ForEach reports why
			}
			if err != nil {
				return fmt.Errorf("%w: scanning sheet %d frame %d: %w", ErrRestore, a.sheet, a.slot, err)
			}
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrRestore) {
				// Cancellation: wrap so callers can match either
				// ErrRestore or the context's error.
				err = fmt.Errorf("%w: %w", ErrRestore, err)
			}
			return err
		}
		for i := range win {
			if err := consume(lo+i, &results[i]); err != nil {
				return err
			}
			results[i] = frameResult{} // release the payload
		}
	}
	return nil
}

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
		res.payload, res.hdr, err = d.decodeEmulated(&sc.emu, scan)
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
