// Package pipeline holds ParFor, the stripe loop the frame path runs its
// data-parallel steps on: the codec's stripe coders, the ladder's rung
// transcode, the sender's RMSE probes, and the receiver's tile extraction
// and unprojection split their work into independent tasks and let ParFor
// spread them over GOMAXPROCS workers, inline when there is one.
package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns how many goroutines ParFor will use for n independent
// tasks: min(GOMAXPROCS, n), at least 1.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ParFor runs fn(i) for every i in [0, n) and returns when all calls have
// completed. Tasks are claimed dynamically from a shared counter so uneven
// task costs balance across workers. With one worker (GOMAXPROCS=1 or
// n<=1) everything runs inline on the calling goroutine — no goroutines
// are spawned and no synchronization is paid, which keeps single-threaded
// callers allocation- and overhead-free.
//
// fn must be safe to call concurrently for distinct i. The iteration order
// is unspecified; callers needing deterministic output must make each
// task's output independent (e.g. write to task-indexed slots) — this is
// how the vcodec stripe coder keeps its bitstream byte-identical
// regardless of worker count.
func ParFor(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	w := Workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 0; k < w-1; k++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller participates as a worker
	wg.Wait()
}
