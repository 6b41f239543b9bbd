package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"

	"bitgen/internal/arena"
	"bitgen/internal/bgerr"
	"bitgen/internal/bitstream"
	"bitgen/internal/gpusim"
	"bitgen/internal/kernel"
	"bitgen/internal/obs"
	"bitgen/internal/transpose"
)

// ScanMatch is one match found by a ScanSession: the output of rank Rank —
// its index in the engine's MatchNames table, through which callers resolve
// the name — matched ending at absolute stream offset End (inclusive). 16
// bytes and pointer-free: the garbage collector never scans a chunk's matches.
type ScanMatch struct {
	End  int64
	Rank int32
}

// ScanSession is the engine's only chunk executor: a transpose basis, the
// shared-class streams, every CTA group's compiled kernel (kernel.Session,
// built once, shared by the session's workers) and one kernel.Executor per
// worker that has launched on it — the register file, window scratch and
// global streams, reused by every group the worker runs — all reused from
// chunk to chunk so a steady-state scan of same-sized chunks performs zero
// heap allocations. Both entry points borrow theirs from the engine's pool
// (GetSession) — a streaming scan one per pipeline worker for the length of
// the call, one-shot Run one per call — so compiled kernels and buffers
// outlive the call that built them. NewScanSession builds an unpooled one on
// the caller's arena; every buffer, the executors' included, comes from that
// arena and returns to it at Close. All reach the kernels through execute and
// launch and collect matches through mergeMatches. One session serves one
// call at a time; concurrency comes from running several sessions.
//
// The two entry points differ only in how wide they launch. Scan runs the
// groups of a chunk one after another in the calling goroutine — the
// pipeline parallelizes across chunks, which keeps the per-chunk path free
// of goroutine and channel churn, on executor 0. Run has a single block of
// input, so it launches the groups through fanOut, at the width of the host,
// each worker on the executor of its slot.
type ScanSession struct {
	e       *Engine
	basis   *transpose.Basis
	classes *classStreams // the shared-class streams, bound as basis.Ext; nil without any
	sess    []*kernel.Session
	xs      []*kernel.Executor // per worker slot, built on first use: Scan runs on xs[0]
	ar      *arena.Arena
	outs    [][]bitstream.Compact // per-group outputs of the last execute
	stats   []gpusim.CTAStats     // per-group counters of the last execute
	live    []liveOut             // mergeMatches scratch, with hits, reused across chunks
	hits    []liveWord
	tr      *arena.Tracker
	// obs is the borrowing call's observer (Observer.For), set by GetSession
	// and dropped by PutSession: a pooled session never carries a call's sink.
	obs *obs.Observer
	// lane carries the session's transpose spans and, unless groupLanes is
	// set, its kernel spans. With groupLanes every CTA group traces on its
	// own lane 1+gi and gets a kernel-launch span there, so the concurrent
	// launches of one Run render as parallel tracks. Both are the borrower's
	// choice (GetSession), not the session's.
	lane       int
	groupLanes bool
	// failed is set once an execute ended in a kernel error or a panic; see
	// PutSession.
	failed bool
}

// liveOut is a cursor over the words of an output the match merge has not
// reached yet, and liveWord one of them dealt out to its word's hit list.
type (
	liveOut struct {
		words bitstream.Compact
		rank  int32
	}
	liveWord struct {
		word uint64
		rank int32
	}
)

// NewScanSession builds a session for chunks up to maxChunkBytes (larger
// chunks still work; they just grow the buffers once). Buffers are borrowed
// from a (nil selects arena.Default) and released by Close. lane is the
// trace lane the session's spans land on, in the engine's own observer.
func (e *Engine) NewScanSession(maxChunkBytes int, a *arena.Arena, lane int) (*ScanSession, error) {
	ss, err := e.newSession(maxChunkBytes, a)
	if err != nil {
		return nil, err
	}
	ss.obs, ss.lane = e.cfg.Obs, lane
	return ss, nil
}

func (e *Engine) newSession(maxChunkBytes int, a *arena.Arena) (*ScanSession, error) {
	sess := make([]*kernel.Session, len(e.groups))
	err := fanOut(len(e.groups), func(_, gi int) error {
		var err error
		if sess[gi], err = kernel.Compile(e.groups[gi].Prog(), e.kernelConfig()); err != nil {
			return fmt.Errorf("engine: group %d: %w", gi, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e.sessionOf(sess, maxChunkBytes, a), nil
}

// sessionOf builds a session around the compiled groups sess.
func (e *Engine) sessionOf(sess []*kernel.Session, maxChunkBytes int, a *arena.Arena) *ScanSession {
	ss := &ScanSession{e: e, basis: &transpose.Basis{}, tr: arena.NewTracker(a), ar: a, sess: sess}
	// Basis backing from the arena: one bit per input byte, eight planes.
	nw := bitstream.WordsFor(maxChunkBytes)
	if nw > 0 {
		for j := 0; j < transpose.NumBasis; j++ {
			ss.basis.SetWords(j, ss.tr.Words(nw))
		}
	}
	if e.classes != nil {
		ss.classes = newClassStreams(e.classes, ss.basis, ss.tr)
	}
	ss.xs = make([]*kernel.Executor, len(sess)) // fanOut's slots are below its n
	ss.outs = make([][]bitstream.Compact, len(sess))
	ss.stats = make([]gpusim.CTAStats, len(sess))
	return ss
}

// kernelConfig is the one kernel configuration this engine launches with,
// so Run and Scan model the same kernel. Observer and trace lane are not part
// of it: launch sets them per call.
func (e *Engine) kernelConfig() kernel.Config {
	return kernel.Config{
		Grid:               e.cfg.Grid,
		Mode:               e.cfg.Mode,
		HonorGuards:        e.cfg.ZeroBlockSkipping,
		SharedInputCTAs:    len(e.groups),
		MaxWhileIterations: e.cfg.MaxWhileIterations,
		Inject:             e.cfg.Inject,
	}
}

// initRunPool installs a fresh session pool. Called at construction and by
// WithInjector: kernel sessions capture the engine's fault injector, so an
// engine copy with a different injector must not share pooled sessions.
//
// Pooled sessions borrow from a private per-engine arena, not
// arena.Default: they retain their buffers indefinitely (they are dropped,
// never Closed), which would read as a leak to anything auditing the global
// arena's balance (the serving layer does, after every aborted scan).
func (e *Engine) initRunPool() {
	e.runPool = &sessionPool{max: runtime.NumCPU()}
	e.runArena = &arena.Arena{}
}

// sessionPool is an engine's free list of idle sessions. It retains at most
// max of them — runtime.NumCPU(), the most one ScanReader call borrows — for
// the engine's lifetime, each with its groups' kernels and their buffers; a
// session put back beyond that is dropped. Unlike a sync.Pool, collector
// cycles do not empty it, so an engine idle across them still runs warm.
type sessionPool struct {
	mu   sync.Mutex
	free []*ScanSession
	max  int
}

// get takes an idle session, or returns nil when there is none.
func (p *sessionPool) get() *ScanSession {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	ss := p.free[n-1]
	p.free[n-1], p.free = nil, p.free[:n-1]
	return ss
}

// put keeps ss unless max sessions are idle already.
func (p *sessionPool) put(ss *ScanSession) {
	p.mu.Lock()
	if len(p.free) < p.max {
		p.free = append(p.free, ss)
	}
	p.mu.Unlock()
}

// GetSession borrows a session from the pool, or builds one: every CTA group
// decoded and compiled through fanOut in one pass (≈ 250 allocations a group,
// the decode's included — 64 k for the 256 of a 500-signature set), then one
// executor per worker on the first launch — what pooling saves each Run and
// each ScanReader worker. A restored engine's pool starts with one. Its spans
// are recorded through o, the borrowing call's observer, on lane, or with
// groupLanes each group's on its own (see ScanSession). Construction cannot
// fail for an engine that compiled — the programs already validated — but the
// error is surfaced rather than swallowed for defense in depth.
func (e *Engine) GetSession(o *obs.Observer, lane int, groupLanes bool) (*ScanSession, error) {
	ss := e.runPool.get()
	if ss == nil {
		var err error
		if ss, err = e.newSession(0, e.runArena); err != nil {
			return nil, err
		}
	}
	ss.obs, ss.lane, ss.groupLanes = o, lane, groupLanes
	return ss, nil
}

// PutSession returns a borrowed session to the pool — unless the pool holds
// its cap already (see sessionPool), or the session is no longer
// indistinguishable from a fresh one; such sessions are dropped and rebuilt
// on demand. A session whose kernels took a materialization fallback would
// carry that fallback (and its modeled-time delta) into an unrelated future
// call, where a fresh session would not. One that failed mid-launch — a
// kernel error, a contained panic, a panic unwinding through execute, which
// sets the mark — may hold inconsistent retained state. A cancellation or a
// memory-budget refusal is neither: kernels stop at a window boundary, every
// run re-initialises its state, and a client hanging up is routine.
func (e *Engine) PutSession(ss *ScanSession) {
	if ss.failed {
		return
	}
	ss.obs = nil
	for _, ks := range ss.sess {
		if ks.Fallbacks() > 0 {
			return
		}
		ks.SetTrace(nil, 0)
	}
	e.runPool.put(ss)
}

// execute transposes chunk, computes the shared-class streams and launches
// every CTA group over the result, leaving the outputs in ss.outs
// and the counters in ss.stats until clearOuts. wide selects the launch
// width (see ScanSession). On error nothing is left parked.
func (ss *ScanSession) execute(ctx context.Context, chunk []byte, wide bool) error {
	// Marked failed while it runs, so a panic unwinding from here leaves the
	// mark; once set it stays.
	failed := ss.failed
	ss.failed = true
	// Arg boxes its value even on a nil span; keep the hot path free of it.
	tracing := ss.obs.Tracing()
	var span *obs.Span
	if tracing {
		span = ss.obs.Span("scan", "transpose", ss.lane).Arg("input_bytes", len(chunk))
	}
	transpose.TransposeInto(ss.basis, chunk)
	span.End()
	if ev := ss.e.classes; ev != nil {
		if tracing {
			span = ss.obs.Span("scan", "shared-classes", ss.lane).Arg("classes", ev.outs).Arg("ops", len(ev.ops))
		}
		ss.classes.compute(ev, ss.basis, ss.tr)
		span.End()
	}
	var err error
	switch {
	case wide:
		err = ss.launchAll(ctx)
	default:
		for gi := 0; gi < len(ss.sess) && err == nil; gi++ {
			err = ss.launch(ctx, 0, gi)
		}
	}
	if err != nil {
		ss.clearOuts()
	}
	ss.failed = failed || (err != nil && !isCanceled(err))
	return err
}

// launchAll launches every group through fanOut and reports the most telling
// failure: when one group hits a real error while others are canceled, the
// real one. Unlike a compile it attempts every group whatever failed before
// (its fn never reports an error to fanOut); a group claimed after ctx is
// done records the cancellation instead of launching.
func (ss *ScanSession) launchAll(ctx context.Context) error {
	errs := make([]error, len(ss.sess))
	fanOut(len(ss.sess), func(w, gi int) error {
		if err := ctx.Err(); err != nil {
			errs[gi] = bgerr.Canceled(err)
		} else {
			errs[gi] = ss.launch(ctx, w, gi)
		}
		return nil
	})
	var first error
	for _, err := range errs {
		if err != nil && (first == nil || (isCanceled(first) && !isCanceled(err))) {
			first = err
		}
	}
	return first
}

func isCanceled(err error) bool { return errors.Is(err, bgerr.ErrCanceled) }

// launch executes one CTA group over the current basis on worker slot w's
// executor, parking its outputs in ss.outs[gi] and its counters in
// ss.stats[gi]. It is the only place the engine launches a kernel. A panic
// inside the kernel is contained: it surfaces as a *bgerr.InternalError
// carrying the group index, its pattern names and the stack, and neither the
// other groups nor the goroutine that called it (a fanOut worker, under
// launchAll) see it.
func (ss *ScanSession) launch(ctx context.Context, w, gi int) (err error) {
	e := ss.e
	defer func() {
		if r := recover(); r != nil {
			err = &bgerr.InternalError{
				Op: "run", Group: gi, Patterns: e.groups[gi].Names,
				Value: r, Stack: debug.Stack(),
			}
		}
	}()
	if err := gpusim.CheckLaunch(e.cfg.Inject, gi); err != nil {
		return fmt.Errorf("engine: group %d: %w", gi, err)
	}
	var lspan *obs.Span
	lane := ss.lane
	if ss.groupLanes {
		lane = groupLane(ss.obs, gi)
		if ss.obs.Tracing() {
			lspan = ss.obs.Span("scan", "kernel-launch", lane).
				Arg("group", gi).Arg("patterns", len(e.groups[gi].Names))
		}
	}
	if ss.xs[w] == nil {
		ss.xs[w] = kernel.NewExecutor(ss.ar)
	}
	ss.sess[gi].SetTrace(ss.obs, lane)
	outs, stats, err := ss.sess[gi].Run(ctx, ss.xs[w], ss.basis)
	if err != nil {
		err = fmt.Errorf("engine: group %d: %w", gi, err)
		lspan.Arg("error", err.Error()).End()
		return err
	}
	if lspan != nil {
		lspan.Arg("windows", stats.Windows).
			Arg("dram_bytes", stats.DRAMReadBytes+stats.DRAMWriteBytes).
			Arg("barriers", stats.Barriers).
			Arg("guard_skips", stats.GuardSkips).End()
	}
	// The outputs stay valid until this group's session runs again — i.e.
	// across the remaining groups of this chunk and the merge that follows.
	ss.outs[gi], ss.stats[gi] = outs, stats
	return nil
}

// checkBudget enforces Config.MemoryBudgetBytes on the last execute of an
// n-byte chunk and returns the intermediate-bitstream footprint it modeled.
func (ss *ScanSession) checkBudget(n int) (int64, error) {
	var footprint int64
	for gi := range ss.stats {
		footprint += gpusim.IntermediateFootprintBytes(ss.stats[gi].IntermediateStreams, int64(n))
	}
	if budget := ss.e.cfg.MemoryBudgetBytes; budget > 0 && footprint > budget {
		return footprint, &bgerr.LimitError{Limit: "device-memory-bytes", Value: footprint, Max: budget}
	}
	return footprint, nil
}

// Scan runs every CTA group over chunk and appends each match whose
// absolute end offset is >= newFrom to dst, ordered by (End, Rank). base is
// chunk[0]'s absolute stream offset. The returned slice reuses dst's
// backing array (steady state appends allocate nothing once the capacity
// has stabilized); on error it is dst unchanged.
func (ss *ScanSession) Scan(ctx context.Context, chunk []byte, base, newFrom int64, dst []ScanMatch) ([]ScanMatch, error) {
	if err := ss.execute(ctx, chunk, false); err != nil {
		return dst, err
	}
	defer ss.clearOuts()
	if _, err := ss.checkBudget(len(chunk)); err != nil {
		return dst, err
	}
	return ss.mergeMatches(base, newFrom, dst), nil
}

// mergeMatches is the engine's only match collector: a tile-synchronous merge
// of the parked outputs into dst. Each output is a cursor over its non-zero
// words, collected once in rank order. A tile of 64 words starts at the next
// word any cursor holds; every cursor deals the words it has in the tile, in
// rank order, to their words' hit lists — one compare for one with none.
// Walking the tile's occupied words, each list's words are ORed and the union's
// set bits emitted ascending, each with the outputs that hit it in rank order:
// (End, Rank) — (End, Pattern) — order by construction, in O(live words +
// matches). A zero word is never read.
func (ss *ScanSession) mergeMatches(base, newFrom int64, dst []ScanMatch) []ScanMatch {
	const mergeTile = 64 // a tile's occupancy is one uint64
	// Positions inside the carried-over overlap were already reported by the
	// previous chunk: start at newFrom's word, with the bits below it masked.
	start := int(max(newFrom-base, 0))
	w0, mask := start>>6, ^uint64(0)<<(uint(start)&63)
	live, hits, next := ss.live[:0], ss.hits, math.MaxInt
	for gi, outs := range ss.outs {
		for oi, words := range outs {
			i, _ := slices.BinarySearchFunc(words, w0, func(x bitstream.Word, w int) int { return cmp.Compare(x.Index, w) })
			if i < len(words) {
				live = append(live, liveOut{words: words[i:], rank: ss.e.outRanks[gi][oi]})
				next = min(next, words[i].Index)
			}
		}
	}
	slices.SortFunc(live, func(a, b liveOut) int { return cmp.Compare(a.rank, b.rank) })
	for t := next; t != math.MaxInt; t = next {
		// Word t+i's hit list is hits[i*stride:][:nh[i]].
		stride, occ := len(live), uint64(0)
		var nh [mergeTile]int32
		hits, next = slices.Grow(hits[:0], mergeTile*stride)[:mergeTile*stride], math.MaxInt
		for j := range live {
			o, k := &live[j], 0
			for ; k < len(o.words) && o.words[k].Index < t+mergeTile; k++ {
				i := o.words[k].Index - t
				hits[i*stride+int(nh[i])] = liveWord{word: o.words[k].Bits, rank: o.rank}
				nh[i]++
				occ |= 1 << uint(i)
			}
			if o.words = o.words[k:]; len(o.words) > 0 {
				next = min(next, o.words[0].Index)
			}
		}
		for ; occ != 0; occ &= occ - 1 {
			i := bits.TrailingZeros64(occ)
			w, union, room := t+i, uint64(0), 1
			at := hits[i*stride:][:nh[i]]
			for _, h := range at {
				union, room = union|h.word, room+bits.OnesCount64(h.word)
			}
			if w == w0 {
				union &= mask
			}
			// Every (bit, output) pair is stored and kept only if the output has
			// the bit — no branch to mispredict; room's spare slot takes the last.
			n := len(dst)
			dst = slices.Grow(dst, room)[:n+room]
			for end := base + int64(w)<<6; union != 0; union &= union - 1 {
				b := uint(bits.TrailingZeros64(union))
				for _, h := range at {
					dst[n] = ScanMatch{End: end + int64(b), Rank: h.rank}
					n += int(h.word >> b & 1)
				}
			}
			dst = dst[:n]
		}
	}
	ss.live, ss.hits = live[:0], hits[:0]
	return dst
}

// clearOuts drops the parked output references so a failed or finished
// chunk cannot alias buffers the next execute will overwrite.
func (ss *ScanSession) clearOuts() {
	for gi := range ss.outs {
		ss.outs[gi] = nil
	}
}

// Close releases every pooled buffer the session borrowed. The session must
// not be used afterwards.
func (ss *ScanSession) Close() {
	for _, x := range ss.xs {
		if x != nil {
			x.Close()
		}
	}
	ss.sess, ss.xs = nil, nil
	ss.tr.Close()
}
