// Package slots is the process-wide frame-slot limit and the bounded
// fan-out it serves. Emblem frames are independent by construction (§3.1
// — each carries its own header, inner code and outer-code group
// coordinates), and so are the DBCoder restart blocks of a seekable
// container, so the per-frame and per-block work of every pipeline runs
// as tasks: one frame's encode, one frame's scan+decode, one frame's
// generational reprint, one restart block's compression.
//
// A call's pool size (ForEach's workers) bounds only that call. What
// bounds the process is the slot limit: every task of every call runs
// holding one of GOMAXPROCS slots (Run), so however many calls — daemon
// jobs, campaign trials, a reprint beside two restores — run at once, at
// most GOMAXPROCS tasks compute and at most that many sets of task
// scratch are live. The package is a leaf: internal/core and media share
// its one limiter, and ForEach is the only fan-out of internal/core,
// media and internal/campaign.
package slots

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// frameSlots is the process-wide task semaphore, GOMAXPROCS slots (as set
// when the process starts). A channel serves blocked senders in arrival
// order, so waiting tasks get slots first come, first served and a
// 2 000-frame restore cannot starve a 60-frame query that queued behind
// one of its frames.
var frameSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// Run runs task holding a slot, waiting for one until ctx is done; then it
// returns ctx's error without running task. The slot is released when
// task returns or panics, so a task must do no sink write or slot wait of
// its own — a stalled sink then holds no slot, and no task waits on
// another while holding one. Scratch a task borrows from a pool goes back
// before the task returns, which is what caps live scratch at the slot
// count.
func Run(ctx context.Context, task func()) error {
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

// panics keeps the first panic among one ForEach call's workers. The zero
// value is ready to use.
type panics struct {
	first atomic.Pointer[panicked]
}

// Run returns fn's error. If fn panics, Run records the panic, cancels
// the call so its other goroutines stop, and returns the panic as the
// error. A panic re-raised by a nested call keeps its original stack.
func (ps *panics) Run(cancel context.CancelFunc, fn func() error) (err error) {
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

// Rethrow re-raises the recorded panic, if any. Call it only once every
// goroutine that could record one has exited.
func (ps *panics) Rethrow() {
	if p := ps.first.Load(); p != nil {
		panic(p)
	}
}

// Workers maps a Workers option to a concrete pool size: n <= 0 selects
// GOMAXPROCS (the default), anything else is used as given — then the
// result is capped at live, the number of work items actually available
// (frames to encode or scan, blocks to compress), so tiny inputs never
// spin up goroutines that would exit without claiming an item. live <= 0
// means the item count is unknown at call time and leaves the pool
// uncapped.
func Workers(n, live int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if live > 0 && n > live {
		n = live
	}
	return n
}

// ForEach runs fn(ctx, worker, i) for every i in [0, n), fanning out over
// at most `workers` goroutines (see Workers). fn must confine its writes
// to per-index storage owned by the caller, plus any per-worker scratch it
// keys off the worker id: each id in [0, workers) is owned by exactly one
// goroutine for the whole run. Order never depends on scheduling when
// every fn writes only the slot of the index it claimed and the caller
// reads the slots in index order afterwards.
//
// The first fn error cancels ctx so in-flight siblings can stop early and
// queued items are never started; ForEach still waits for every started
// call to return before it does. When several items fail before
// cancellation lands, the error of the lowest such index is returned
// (which errors got recorded can vary with scheduling; the tie-break
// among them is deterministic). With one worker the items run strictly in
// index order, so the first failing item is the one reported. A panicking
// fn cancels the rest the same way, and ForEach re-raises the panic on
// its caller's goroutine once its workers have exited.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     int64 = -1 // atomically claimed item cursor
		wg       sync.WaitGroup
		ps       panics
		mu       sync.Mutex
		first    = n   // lowest failed index
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
				if err := ps.Run(cancel, func() error { return fn(ctx, worker, i) }); err != nil {
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
	ps.Rethrow()
	if firstErr == nil {
		return ctx.Err()
	}
	return firstErr
}
