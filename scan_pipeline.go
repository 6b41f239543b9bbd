package bitgen

import (
	"context"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bitgen/internal/arena"
	"bitgen/internal/bgerr"
	"bitgen/internal/engine"
	"bitgen/internal/obs"
)

// Trace lanes for the pipeline stages: each stage renders as its own track
// so reads, chunk executions and emission are visibly overlapped. Kernel
// spans from worker i land on that worker's lane. They are negative because
// CTA group g owns lane 1+g and an engine may have any number of groups.
const (
	scanLaneEmit   = -1
	scanLaneReader = -2
	scanLaneWorker = -3 // worker i uses scanLaneWorker - i
)

// scanJob is one chunk moving through the pipeline. The job struct, its
// match slice and its pooled byte buffer are recycled through a fixed-size
// freelist, so the steady-state chunk loop allocates nothing.
type scanJob struct {
	seq     int64
	buf     *arena.Bytes // pooled chunk storage (overlap prefix + new bytes)
	data    []byte       // valid view of buf.B
	offset  int64        // absolute stream offset of data[0]
	newFrom int64        // first absolute offset not yet emitted
	// Worker output: the matches at absolute offsets >= newFrom, in (End,
	// rank) order.
	matches []engine.ScanMatch
	err     error
}

// scanPipelined is the streaming loop, a bounded three-stage pipeline:
//
//	reader ──work──▶ workers (one chunk each) ──results──▶ in-order emit
//
// The reader cuts the stream into chunks overlapping by maxLen-1 bytes, in
// pooled buffers; each worker runs whole chunks on an engine.ScanSession
// borrowed from the engine's pool for the call (the one Run borrows from) and
// keeps the matches ending in the chunk's fresh bytes; the emit stage
// reorders completed chunks by sequence number, so matches appear in (End,
// Pattern, Index) order whatever the worker count. Chunk N+1 is being read
// and scanned while chunk N's matches are emitted. All stages shut down —
// and every pooled buffer is returned — before the call returns, on
// success, error and cancellation alike.
func (e *Engine) scanPipelined(ctx context.Context, r io.Reader, chunkSize, maxLen int, emit func(Match)) error {
	overlap := maxLen - 1
	workers := e.scanWorkers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	ar := e.scanArena
	if ar == nil {
		ar = arena.Default
	}
	// Bounded look-ahead: jobs in flight at once.
	depth := workers + 2

	o := e.obs.For(ctx) // the call's one sink lookup; workers hand it to their sessions
	traced := o.Tracing()
	o.NameLane(scanLaneEmit, "scan/emit")
	o.NameLane(scanLaneReader, "scan/reader")

	free := make(chan *scanJob, depth)
	work := make(chan *scanJob, depth)
	results := make(chan *scanJob, depth)
	for i := 0; i < depth; i++ {
		free <- &scanJob{}
	}

	// pctx stops the reader and interrupts in-flight kernels once the
	// outcome is decided (terminal error or all input consumed).
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()

	// readerErr is written by the reader goroutine before it closes work,
	// and read by this goroutine only after results closes — the channel
	// closes order the accesses.
	var readerErr error
	// failedSeq is the lowest sequence number whose chunk failed, published
	// by the failing worker before it takes more work. Workers pass every
	// later chunk on unscanned: with one worker nothing past the first
	// failing chunk reaches the engine. Earlier chunks still in
	// flight on other workers must finish — the emit stage owes their
	// matches — which is why the worker does not cancel pctx; the emit stage
	// does, once it reaches the failed chunk.
	var failedSeq atomic.Int64
	failedSeq.Store(math.MaxInt64)

	go func() { // stage 1: reader
		defer close(work)
		carryBuf := make([]byte, overlap)
		carry := carryBuf[:0]
		var pos int64 // total bytes consumed from r
		var seq int64
		for {
			var j *scanJob
			select {
			case j = <-free:
			case <-pctx.Done():
				readerErr = bgerr.Canceled(pctx.Err())
				return
			}
			j.buf = ar.GetBytes(overlap + chunkSize)
			b := j.buf.B
			copy(b, carry)
			var rspan *obs.Span
			if traced {
				rspan = o.Span("scan", "read-chunk", scanLaneReader).Arg("seq", seq)
			}
			n, err := io.ReadFull(r, b[len(carry):len(carry)+chunkSize])
			if traced {
				rspan.Arg("bytes", n).End()
			}
			data := b[:len(carry)+n]
			eof := err == io.EOF || err == io.ErrUnexpectedEOF
			if err != nil && !eof {
				// The failed read began right after the bytes consumed so
				// far; fully-read chunks before it still emit.
				readerErr = &ReadError{Offset: pos + int64(n), Err: err}
				ar.PutBytes(j.buf)
				j.buf = nil
				return
			}
			if n == 0 {
				// Pure EOF: the carried overlap was already scanned.
				ar.PutBytes(j.buf)
				j.buf = nil
				return
			}
			j.seq, j.data, j.err = seq, data, nil
			j.offset = pos - int64(len(carry))
			j.newFrom = pos
			pos += int64(n)
			keep := overlap
			if keep > len(data) {
				keep = len(data)
			}
			carry = carryBuf[:keep]
			copy(carry, data[len(data)-keep:])
			seq++
			work <- j // never blocks: at most depth jobs exist
			if eof {
				return
			}
		}
	}()

	var wg sync.WaitGroup // stage 2: transpose + kernel workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := scanLaneWorker - w
			o.NameLane(lane, "scan/worker")
			// The session is borrowed when the first chunk arrives: a worker
			// that never gets one builds nothing. PutSession drops it if a
			// chunk failed on it.
			var ss *engine.ScanSession
			var ssErr error
			defer func() {
				if ss != nil {
					e.inner.PutSession(ss)
				}
			}()
			for j := range work {
				j.matches = j.matches[:0]
				if j.seq > failedSeq.Load() {
					j.err = bgerr.Canceled(context.Canceled)
				} else {
					if ss == nil && ssErr == nil {
						ss, ssErr = e.inner.GetSession(o, lane, false)
					}
					start := time.Now()
					var cspan *obs.Span
					if traced {
						cspan = o.Span("scan", "scan-chunk", lane).Arg("seq", j.seq)
					}
					j.scan(pctx, ss, ssErr)
					n := len(j.matches)
					if traced {
						cspan.Arg("matches", n).End()
					}
					// The carried overlap was counted with the previous chunk.
					e.observeScan(start, len(j.data)-int(j.newFrom-j.offset), n, j.err)
					if j.err != nil { // lower failedSeq to j.seq
						for f := failedSeq.Load(); j.seq < f && !failedSeq.CompareAndSwap(f, j.seq); {
							f = failedSeq.Load()
						}
					}
				}
				ar.PutBytes(j.buf)
				j.buf = nil
				results <- j // never blocks: at most depth jobs exist
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Stage 3: in-order emit. Jobs complete out of order; a ring keyed by
	// seq modulo depth (in-flight seqs always span < depth) restores chunk
	// order. The earliest failing chunk decides the returned error; nothing
	// of it or of any later chunk is emitted.
	ring := make([]*scanJob, depth)
	next := int64(0)
	var termErr error
	for j := range results {
		ring[j.seq%int64(depth)] = j
		for {
			k := ring[next%int64(depth)]
			if k == nil {
				break
			}
			ring[next%int64(depth)] = nil
			if termErr == nil {
				if k.err != nil {
					termErr = k.err
					pcancel() // stop reading; interrupt later chunks
				} else {
					for _, m := range k.matches {
						// Fan each unique pattern's match out to every
						// duplicate index, ascending, as Run's result does.
						// The rank indexes the precomputed name and
						// fan-out tables directly.
						for _, idx := range e.rankIndexes[m.Rank] {
							emit(Match{Pattern: e.rankNames[m.Rank], Index: idx, End: int(m.End)})
						}
					}
					if traced {
						o.Instant("scan", "emit-chunk", scanLaneEmit,
							obs.A("seq", k.seq), obs.A("matches", len(k.matches)))
					}
				}
			}
			next++
			free <- k // never blocks: freelist capacity is depth
		}
	}
	if termErr != nil {
		return termErr
	}
	// All dispatched chunks emitted; surface how the reader stopped.
	return readerErr
}

// scan runs the job's chunk on the worker's session, containing any panic
// as a typed internal error (mirroring Run's containment) so one poisoned
// chunk cannot take down the pipeline.
func (j *scanJob) scan(ctx context.Context, ss *engine.ScanSession, ssErr error) {
	defer func() {
		if r := recover(); r != nil {
			j.err = &bgerr.InternalError{Op: "scan", Value: r, Stack: debug.Stack()}
		}
	}()
	if ssErr != nil {
		j.err = ssErr
		return
	}
	j.matches, j.err = ss.Scan(ctx, j.data, j.offset, j.newFrom, j.matches)
}
