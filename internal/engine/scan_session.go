package engine

import (
	"context"
	"fmt"
	"runtime/debug"

	"bitgen/internal/arena"
	"bitgen/internal/bgerr"
	"bitgen/internal/bitstream"
	"bitgen/internal/gpusim"
	"bitgen/internal/kernel"
	"bitgen/internal/transpose"
)

// ScanMatch is one match found by a ScanSession: Pattern matched ending at
// absolute stream offset End (inclusive). Rank is Pattern's index in the
// engine's MatchNames table — callers on the hot path dispatch on the
// integer instead of hashing the string.
type ScanMatch struct {
	Pattern string
	End     int64
	Rank    int32
}

// ScanSession is a reusable chunk executor for streaming scans: it owns a
// pooled transpose basis and one kernel session per CTA group, so a
// steady-state scan of same-sized chunks performs zero heap allocations per
// chunk. One session serves one goroutine (the scanner runs one per
// pipeline worker); concurrency comes from running several sessions over
// different chunks.
//
// Unlike Engine.Run, the groups of one chunk execute sequentially in the
// calling goroutine: the pipeline parallelizes across chunks, not across
// groups, which keeps the per-chunk path allocation-free (no goroutine or
// channel churn) while still scaling on multi-core hosts.
type ScanSession struct {
	e      *Engine
	basis  *transpose.Basis
	sess   []*kernel.Session
	shared *kernel.Session       // computes the shared-class streams; nil without any
	outs   [][]*bitstream.Stream // per-group output streams of the last run
	heap   []scanCursor          // merge heap scratch, reused across chunks
	tr     *arena.Tracker
	lane   int
}

// scanCursor walks one output stream during the match merge. end is the
// absolute offset of the cursor's current set bit; the heap orders by
// (end, rank), which is exactly (End, Pattern) order because ranks are
// assigned in ascending name order.
type scanCursor struct {
	end  int64
	pos  int // current bit position within the stream
	rank int32
	gi   int32
	oi   int32
}

// NewScanSession builds a session for chunks up to maxChunkBytes (larger
// chunks still work; they just grow the buffers once). Buffers are borrowed
// from a (nil selects arena.Default) and released by Close. lane is the
// trace lane the session's kernel spans land on.
func (e *Engine) NewScanSession(maxChunkBytes int, a *arena.Arena, lane int) (*ScanSession, error) {
	ss := &ScanSession{
		e:     e,
		basis: &transpose.Basis{},
		tr:    arena.NewTracker(a),
		lane:  lane,
	}
	// Basis backing from the arena: one bit per input byte, eight planes.
	nw := bitstream.WordsFor(maxChunkBytes)
	if nw > 0 {
		for j := 0; j < transpose.NumBasis; j++ {
			ss.basis.SetWords(j, ss.tr.Words(nw))
		}
	}
	var err error
	if ss.shared, err = e.newSharedSession(a); err != nil {
		ss.Close()
		return nil, err
	}
	kcfg := e.kernelConfig(lane)
	for gi := range e.groups {
		ks, err := kernel.NewSession(e.groups[gi].Prog(), kcfg, a)
		if err != nil {
			ss.Close()
			return nil, fmt.Errorf("engine: group %d: %w", gi, err)
		}
		ss.sess = append(ss.sess, ks)
	}
	ss.outs = make([][]*bitstream.Stream, len(ss.sess))
	return ss, nil
}

// Scan runs every CTA group over chunk and appends each match whose
// absolute end offset is >= newFrom to dst, sorted by (End, Pattern) — the
// exact order and dedup semantics of the sequential per-chunk path. base is
// chunk[0]'s absolute stream offset. The returned slice reuses dst's
// backing array (steady state appends allocate nothing once the capacity
// has stabilized).
func (ss *ScanSession) Scan(ctx context.Context, chunk []byte, base, newFrom int64, dst []ScanMatch) ([]ScanMatch, error) {
	e := ss.e
	// Arg boxes its value even on a nil span; keep the hot path free of it.
	if e.cfg.Obs.Enabled() {
		tspan := e.cfg.Obs.Span("scan", "transpose", ss.lane).Arg("input_bytes", len(chunk))
		transpose.TransposeInto(ss.basis, chunk)
		tspan.End()
	} else {
		transpose.TransposeInto(ss.basis, chunk)
	}
	start := len(dst)
	if err := bindShared(ctx, ss.shared, ss.basis); err != nil {
		return dst[:start], err
	}
	var footprint int64
	for gi := range ss.sess {
		stats, err := ss.scanGroup(ctx, gi)
		if err != nil {
			ss.clearOuts()
			return dst[:start], err
		}
		footprint += gpusim.IntermediateFootprintBytes(stats.IntermediateStreams, int64(len(chunk)))
	}
	if e.cfg.MemoryBudgetBytes > 0 && footprint > e.cfg.MemoryBudgetBytes {
		ss.clearOuts()
		return dst[:start], &bgerr.LimitError{
			Limit: "device-memory-bytes",
			Value: footprint, Max: e.cfg.MemoryBudgetBytes,
		}
	}
	dst = ss.mergeMatches(base, newFrom, dst)
	ss.clearOuts()
	return dst, nil
}

// scanGroup executes one CTA group over the current basis, parking its
// output streams in ss.outs[gi] for the merge. A panic inside the kernel is
// contained as a typed internal error, mirroring Engine.Run's per-group
// containment.
func (ss *ScanSession) scanGroup(ctx context.Context, gi int) (st gpusim.CTAStats, err error) {
	e := ss.e
	defer func() {
		if r := recover(); r != nil {
			err = &bgerr.InternalError{
				Op: "scan", Group: gi, Patterns: e.groups[gi].Names,
				Value: r, Stack: debug.Stack(),
			}
		}
	}()
	if err := gpusim.CheckLaunch(e.cfg.Inject, gi); err != nil {
		return st, fmt.Errorf("engine: group %d: %w", gi, err)
	}
	outs, stats, err := ss.sess[gi].Run(ctx, ss.basis)
	if err != nil {
		return st, fmt.Errorf("engine: group %d: %w", gi, err)
	}
	// The streams stay valid until this group's session runs again — i.e.
	// across the remaining groups of this chunk and the merge that follows.
	ss.outs[gi] = outs
	return stats, nil
}

// mergeMatches k-way-merges the per-output match runs into dst. Each
// stream's set bits are already ascending, so a binary min-heap keyed by
// (end, rank) yields matches in exactly the (End, Pattern) order the
// sequential path's sort produced — on integer comparisons, without the
// per-chunk O(n log n) string sort that used to dominate the scan profile.
func (ss *ScanSession) mergeMatches(base, newFrom int64, dst []ScanMatch) []ScanMatch {
	startBit := 0
	if newFrom > base {
		// Positions inside the carried-over overlap were already reported
		// by the previous chunk.
		startBit = int(newFrom - base)
	}
	h, gouts := ss.heap[:0], ss.outs
	for gi, outs := range gouts {
		ranks := ss.e.outRanks[gi]
		for oi, s := range outs {
			p := s.NextSetBit(startBit)
			if p < 0 {
				continue
			}
			h = append(h, scanCursor{
				end: base + int64(p), pos: p,
				rank: ranks[oi], gi: int32(gi), oi: int32(oi),
			})
			siftUp(h, len(h)-1)
		}
	}
	names := ss.e.matchNames
	for len(h) > 0 {
		c := h[0]
		dst = append(dst, ScanMatch{Pattern: names[c.rank], End: c.end, Rank: c.rank})
		p := gouts[c.gi][c.oi].NextSetBit(c.pos + 1)
		if p < 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			c.pos, c.end = p, base+int64(p)
			h[0] = c
		}
		siftDown(h, 0)
	}
	ss.heap = h[:0]
	return dst
}

func cursorLess(a, b scanCursor) bool {
	if a.end != b.end {
		return a.end < b.end
	}
	return a.rank < b.rank
}

func siftUp(h []scanCursor, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !cursorLess(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []scanCursor, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && cursorLess(h[r], h[l]) {
			m = r
		}
		if !cursorLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// clearOuts drops the parked stream references so a failed or finished
// chunk cannot alias buffers the next Run will overwrite.
func (ss *ScanSession) clearOuts() {
	for gi := range ss.outs {
		ss.outs[gi] = nil
	}
}

// Close releases every pooled buffer the session borrowed. The session must
// not be used afterwards.
func (ss *ScanSession) Close() {
	for _, ks := range ss.sess {
		ks.Close()
	}
	ss.sess = nil
	if ss.shared != nil {
		ss.shared.Close()
		ss.shared = nil
	}
	ss.tr.Close()
}
