package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The frame fan-out machinery. Emblem frames are independent by
// construction (§3.1 — each carries its own header, inner code and
// outer-code group coordinates), so the per-frame stages run on bounded
// worker pools: rasterize/encode on the way out (pipelineGroups), and
// scan/decode on the way back (forEachFrame, under the restore
// executor's decodeFrames). Order never depends on
// scheduling: every worker writes only the slot of the frame index it
// claimed, and the serial stages that follow read the slots in index
// order. A frame-fatal error cancels the remaining work through the
// context; among the errors recorded before cancellation lands, the one
// from the lowest frame index is reported.
//
// A call's pool size bounds only that call. What bounds the process is
// frameSlots: every frame task of every call — one frame's scan+decode,
// one frame's encode — runs holding one of its slots, so however many
// calls (daemon jobs, campaign trials) run at once, at most GOMAXPROCS
// frame tasks run and at most that many sets of frame scratch are live.

// frameSlots is the process-wide frame-task semaphore, GOMAXPROCS slots
// (as set when the process starts). A channel serves blocked senders in
// arrival order, so waiting tasks get slots first come, first served and
// a 2 000-frame restore cannot starve a 60-frame query that queued
// behind one of its frames.
var frameSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// withSlot runs task holding a frame slot, waiting for one until ctx is
// done; then it returns ctx's error without running task. The slot is
// released when task returns or panics, so a task must do no channel
// send, sink write or slot wait of its own — a stalled consumer then
// holds no slot, and no task waits on another while holding one. Scratch
// a task borrows from a pool goes back before the task returns, which is
// what caps live scratch at the slot count.
func withSlot(ctx context.Context, task func()) error {
	select {
	case frameSlots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-frameSlots }()
	task()
	return nil
}

// panicked is a panic recovered on a goroutine that a call started. The
// call re-raises it on its caller's goroutine once every goroutine it
// started has exited: no goroutine outlives the call, and a caller that
// recovers panics, such as a job worker, recovers this one too. The
// message carries the stack of the goroutine that panicked, which the
// re-raise would otherwise lose.
type panicked struct {
	value any
	stack []byte
}

func (p *panicked) Error() string { return fmt.Sprintf("%v\n\n%s", p.value, p.stack) }

// panics keeps the first panic among one call's goroutines.
type panics struct {
	first atomic.Pointer[panicked]
}

// run returns fn's error. If fn panics, run records the panic, cancels
// the call so its other goroutines stop, and returns the panic as the
// error. A panic re-raised by a nested call keeps its original stack.
func (ps *panics) run(cancel context.CancelFunc, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := r.(*panicked)
			if !ok {
				p = &panicked{value: r, stack: debug.Stack()}
			}
			ps.first.CompareAndSwap(nil, p)
			cancel()
			err = p
		}
	}()
	return fn()
}

// rethrow re-raises the recorded panic, if any. Call it only once every
// goroutine that could record one has exited.
func (ps *panics) rethrow() {
	if p := ps.first.Load(); p != nil {
		panic(p)
	}
}

// resolveWorkers maps an Options.Workers value to a concrete pool size:
// n <= 0 selects GOMAXPROCS (the default), anything else is used as
// given — then the result is capped at live, the number of work items
// actually available (frames to encode or scan), so tiny inputs never
// spin up goroutines that would exit without claiming a frame. live <= 0
// means the item count is unknown at call time and leaves the pool
// uncapped.
func resolveWorkers(n, live int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if live > 0 && n > live {
		n = live
	}
	return n
}

// frontier replays out-of-order completions in strict index order: the
// parallel stage reports indices as they finish, drain walks the
// contiguous prefix exactly once per index. It is the ordering half of
// the pipelines' serial tail stages — the restore executor's consumer
// drains one, and the archive placer is its
// group-granular analogue (the planner emits groups in order, so the
// placer's frontier is the channel itself).
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

// forEachFrame runs fn(ctx, worker, i) for every i in [0, n), fanning
// out over at most `workers` goroutines. fn must confine its writes to
// per-index storage owned by the caller, plus any per-worker scratch it
// keys off the worker id: each id in [0, workers) is owned by exactly
// one goroutine for the whole run.
//
// The first fn error cancels ctx so in-flight siblings can stop early and
// queued frames are never started; forEachFrame still waits for every
// started call to return before it does. When several frames fail before
// cancellation lands, the error of the lowest such frame index is
// returned (which errors got recorded can vary with scheduling; the
// tie-break among them is deterministic). With one worker the frames run
// strictly in index order, so the first failing frame is the one reported.
// A panicking fn cancels the rest the same way, and forEachFrame
// re-raises the panic once its workers have exited.
func forEachFrame(ctx context.Context, workers, n int, fn func(ctx context.Context, worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = resolveWorkers(workers, n)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     int64 = -1 // atomically claimed frame cursor
		wg       sync.WaitGroup
		ps       panics
		mu       sync.Mutex
		first    = n   // lowest failed frame index
		firstErr error // its error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := ps.run(cancel, func() error { return fn(ctx, worker, i) }); err != nil {
					mu.Lock()
					if i < first {
						first, firstErr = i, err
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ps.rethrow()
	if firstErr == nil {
		return ctx.Err()
	}
	return firstErr
}
