package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// fanOut runs fn(w, i) for every i in [0, n) on min(GOMAXPROCS, n) goroutines,
// the caller's among them (with one: no goroutine, no hand-off). w is the
// worker slot, in [0, min(GOMAXPROCS, n)), 0 the caller's: state a worker owns
// for the length of the call — a launch's kernel executor — is indexed by it.
// It is the engine's only way to run CTA groups concurrently, for its four
// callers: compile, restore, a session's group compile and its wide launch;
// each fn writes its result to a slot its caller indexes by i. Indices are
// claimed in ascending order from one counter; after a failure nothing more is
// claimed and whatever was claimed runs to completion, so every index below a
// claimed one ran and the error returned is the lowest failing index's — the
// one a serial loop would have stopped at — whichever failed first on the
// clock. fanOut returns once every goroutine it started has exited; a panic in
// fn ends the claims too and is re-raised on the caller's goroutine, where the
// containment a serial loop's panic would have reached still sees it (DESIGN
// §8, §15).
func fanOut(n int, fn func(w, i int) error) error {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		lowest   = n // lowest failing index so far, and its error
		first    error
		panicked any
		wg       sync.WaitGroup
	)
	work := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				next.Store(int64(n))
				mu.Lock()
				panicked = r
				mu.Unlock()
			}
			wg.Done()
		}()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if err := fn(w, i); err != nil {
				next.Store(int64(n)) // no further claims
				mu.Lock()
				if i < lowest {
					lowest, first = i, err
				}
				mu.Unlock()
			}
		}
	}
	w := max(1, min(runtime.GOMAXPROCS(0), n))
	wg.Add(w)
	for ; w > 1; w-- {
		go work(w - 1)
	}
	work(0)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return first
}
