package kernel

import (
	"bitgen/internal/bitstream"
	"bitgen/internal/ir"
)

// regFile holds the per-window register state of a fused segment: one value
// per variable, epoch-tagged so every register is invalidated between
// windows without clearing. A register present in the current window is in
// one of four states:
//
//   - owned: ww words of storage the executor may write (what buf returns);
//   - view: a read-only alias of a materialized stream's words — the window
//     operand of a basis or global load, bound without copying;
//   - known zero: a tag with no words behind it, the host analog of the
//     all-zero flag a producing instruction leaves for Zero Block Skipping;
//   - deferred: shift(src, k) not yet computed, the source's words and the
//     distance left by a shift the compiler proved safe to delay (compileRun).
//     Readers that fold it (deferredSrc) or answer from the source (any)
//     never compute it; get and mut force it into owned storage, once.
//
// get returns a slice to READ in every state. Code that writes a register it
// did not just obtain from buf goes through mut, the copy-on-write accessor; a
// view, a deferred register's source and the shared zero words are never written.
type regFile struct {
	own    [][]uint64 // owned storage, retained across windows
	val    [][]uint64 // current value (owned, view) or source words (deferred)
	shiftK []int32    // shift distance of a deferred register
	state  []regState
	epoch  []uint32
	cur    uint32
	ww     int // words per window
	endBit int // valid bits per window; registers hold zeros from there on
	// zeros is the shared read-only all-zero operand get hands out for
	// known-zero registers (at least ww words once anyone asked).
	zeros []uint64
	// alloc provides backing storage for register buffers; nil means plain
	// make. Sessions wire it to a pooled arena tracker.
	alloc func(n int) []uint64
	// noZeroTag makes zero write real zeros instead of tagging, so no µop
	// ever short-circuits. Never set outside tests: they run a program both
	// ways to show outputs and charges do not depend on the tag.
	noZeroTag bool
	// noDefer makes every shift compute at once: the same seam for deferral.
	noDefer bool
}

type regState uint8

const (
	regOwned regState = iota
	regView
	regZero
	regDeferred
)

func newRegFile(numVars int) *regFile {
	return &regFile{
		own:    make([][]uint64, numVars),
		val:    make([][]uint64, numVars),
		shiftK: make([]int32, numVars),
		state:  make([]regState, numVars),
		epoch:  make([]uint32, numVars),
	}
}

func (r *regFile) newWords(n int) []uint64 {
	if r.alloc != nil {
		return r.alloc(n)
	}
	return make([]uint64, n)
}

// beginWindow invalidates all registers and sets the window size to ww words.
func (r *regFile) beginWindow(ww int) {
	r.cur++
	r.ww = ww
	r.endBit = ww * 64
}

// has reports whether v holds a value in the current window.
func (r *regFile) has(v ir.VarID) bool {
	return r.epoch[v] == r.cur
}

// isZero reports whether v is known to be all zero in the current window. A
// false answer says nothing: only producers that track it set the tag.
func (r *regFile) isZero(v ir.VarID) bool {
	return r.epoch[v] == r.cur && r.state[v] == regZero
}

// buf returns owned storage for writing v, allocating or resizing as needed
// and marking v present (and neither a view nor known zero) in the current
// window. Contents are unspecified. When v was already owned this window the
// same words come back, so an elementwise op may overwrite its own operand.
func (r *regFile) buf(v ir.VarID) []uint64 {
	b := r.own[v]
	if cap(b) < r.ww {
		b = r.newWords(r.ww)
	}
	b = b[:r.ww]
	r.own[v], r.val[v] = b, b
	r.state[v] = regOwned
	r.epoch[v] = r.cur
	return b
}

// get returns v's current-window value for reading, or nil when v is absent.
func (r *regFile) get(v ir.VarID) []uint64 {
	if r.epoch[v] != r.cur {
		return nil
	}
	switch r.state[v] {
	case regZero:
		if len(r.zeros) < r.ww {
			r.zeros = r.newWords(r.ww)
			clear(r.zeros)
		}
		return r.zeros[:r.ww]
	case regDeferred:
		return r.force(v)
	}
	return r.val[v]
}

// mut returns v's value in owned storage, for the few sites that modify a
// register in place: a view is copied, a known-zero or absent register is
// zero-filled, a deferred shift computed, an owned one returned as is.
func (r *regFile) mut(v ir.VarID) []uint64 {
	switch {
	case !r.has(v) || r.state[v] == regZero:
		b := r.buf(v)
		clear(b)
		return b
	case r.state[v] == regView:
		src := r.val[v]
		b := r.buf(v)
		copy(b, src)
		return b
	}
	return r.get(v) // owned as is, a deferred shift computed
}

// shift sets v = shift(src, k): computed at once, or when lazy only recorded —
// src must then stay unwritten while v can be read this window.
func (r *regFile) shift(v ir.VarID, src []uint64, k int32, lazy bool) {
	r.val[v] = src
	r.shiftK[v] = k
	r.state[v] = regDeferred
	r.epoch[v] = r.cur
	if !lazy || r.noDefer {
		r.force(v)
	}
}

// deferredSrc returns the source and distance of a deferred v, present this
// window, that fusedShiftBin can fold: |k| in 1..63 (ir.Validate admits no 0).
func (r *regFile) deferredSrc(v ir.VarID) (src []uint64, k int, ok bool) {
	k = int(r.shiftK[v])
	return r.val[v], k, r.state[v] == regDeferred && -64 < k && k < 64
}

// force computes a deferred v into its owned storage, window tail masked.
func (r *regFile) force(v ir.VarID) []uint64 {
	src, k := r.val[v], int(r.shiftK[v])
	b := r.buf(v)
	bitstream.ShiftWords(b, src, k)
	r.maskTail(b)
	return b
}

// any reports whether v, present this window, has a bit set. A deferred shift
// moves bit i to i+k and keeps [0, endBit): source bits [-k, endBit-k) count.
func (r *regFile) any(v ir.VarID) bool {
	if r.state[v] == regDeferred {
		k := int(r.shiftK[v])
		return anyBits(r.val[v], max(-k, 0), min(r.endBit-k, r.ww*64))
	}
	return r.state[v] != regZero && anyWords(r.val[v])
}

// maskTail zeroes buf from endBit on: the stream's end in the final window.
func (r *regFile) maskTail(buf []uint64) {
	if r.endBit >= len(buf)*64 {
		return
	}
	w := r.endBit / 64
	if r.endBit%64 != 0 {
		buf[w] &= (1 << (uint(r.endBit) % 64)) - 1
		w++
	}
	clear(buf[w:])
}

// zero marks v known zero in the current window without touching memory.
func (r *regFile) zero(v ir.VarID) {
	if r.noZeroTag {
		clear(r.buf(v))
		return
	}
	r.state[v] = regZero
	r.epoch[v] = r.cur
}

// view binds v to words [fromWord, fromWord+ww) of s without copying. Only
// a window that sticks out of the stream's backing words is copied (and
// zero-padded) into owned storage instead.
func (r *regFile) view(v ir.VarID, s *bitstream.Stream, fromWord int) []uint64 {
	words := s.Words()
	if fromWord < 0 || fromWord+r.ww > len(words) {
		b := r.buf(v)
		loadWindow(b, s, fromWord)
		return b
	}
	b := words[fromWord : fromWord+r.ww : fromWord+r.ww]
	r.val[v] = b
	r.state[v] = regView
	r.epoch[v] = r.cur
	return b
}

// loadWindow copies words [fromWord, fromWord+len(dst)) of a stream into
// dst, zero-filling positions outside the stream's backing words.
func loadWindow(dst []uint64, s *bitstream.Stream, fromWord int) {
	words := s.Words()
	lo, hi := max(fromWord, 0), min(fromWord+len(dst), len(words))
	if lo >= hi {
		clear(dst)
		return
	}
	clear(dst[:lo-fromWord])
	copy(dst[lo-fromWord:], words[lo:hi])
	clear(dst[hi-fromWord:])
}

// storeWindow copies src's words [srcOff, srcOff+nWords) into stream words
// starting at dstWord, clipping to the stream's length.
func storeWindow(s *bitstream.Stream, dstWord int, src []uint64, srcOff, nWords int) {
	words := s.Words()
	lo, hi := max(dstWord, 0), min(dstWord+nWords, len(words))
	if lo < hi {
		copy(words[lo:hi], src[srcOff+lo-dstWord:])
	}
	// The stream keeps bits past Len zero.
	maskStreamTail(s)
}

func maskStreamTail(s *bitstream.Stream) {
	n := s.Len()
	words := s.Words()
	if n%64 != 0 && len(words) > 0 {
		words[len(words)-1] &= (1 << (uint(n) % 64)) - 1
	}
}

// anyWords reports whether any bit is set.
func anyWords(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return true
		}
	}
	return false
}

// anyBits reports whether any of w's bits [lo, hi) is set.
func anyBits(w []uint64, lo, hi int) bool {
	if lo >= hi {
		return false
	}
	first, last := lo/64, (hi-1)/64
	loMask, hiMask := ^uint64(0)<<(uint(lo)%64), ^uint64(0)>>(63-uint(hi-1)%64)
	if first == last {
		return w[first]&loMask&hiMask != 0
	}
	return w[first]&loMask != 0 || anyWords(w[first+1:last]) || w[last]&hiMask != 0
}

// andWords / orWords / xorWords / andNotWords / notWords are the word-level
// kernels of the bitwise instructions.
//
// andWords and andNotWords — the ops that can turn non-zero operands into an
// all-zero result — return the OR of every word they stored, the host analog
// of the atomicOr flag a producing instruction leaves for the guards
// (Section 6): zero means dst is known zero.
func andWords(dst, x, y []uint64) (or uint64) {
	for i := range dst {
		w := x[i] & y[i]
		dst[i] = w
		or |= w
	}
	return or
}

func orWords(dst, x, y []uint64) {
	for i := range dst {
		dst[i] = x[i] | y[i]
	}
}

func xorWords(dst, x, y []uint64) {
	for i := range dst {
		dst[i] = x[i] ^ y[i]
	}
}

func andNotWords(dst, x, y []uint64) (or uint64) {
	for i := range dst {
		w := x[i] &^ y[i]
		dst[i] = w
		or |= w
	}
	return or
}

func notWords(dst, x []uint64) {
	for i := range dst {
		dst[i] = ^x[i]
	}
}

// onesRunCrossing inspects the class window c and the boundary bit position
// boundary (relative to the window start, in bits): it returns the length
// of the run of consecutive 1-bits ending just before the boundary, and
// whether that run extends all the way to the window start (meaning a carry
// chain could have begun before the window and the committed bits may be
// stale). A zero-length run means no chain crosses the boundary.
func onesRunCrossing(c []uint64, boundary int) (runLen int, reachesStart bool) {
	if boundary <= 0 {
		return 0, false
	}
	// The run must include bit boundary-1 to cross into the committed
	// region.
	i := boundary - 1
	for i >= 0 {
		w := c[i/64]
		bit := uint(i) % 64
		if w&(1<<bit) == 0 {
			return boundary - 1 - i, false
		}
		// Fast path: whole word of ones below this bit.
		if bit == 63 && w == ^uint64(0) {
			i -= 64
			continue
		}
		i--
	}
	return boundary, true
}

// starThruWords computes the fused MatchStar over window buffers:
// with T = (M >> 1) & C (window-local shift, zero carry-in),
// dst = ((((T + C) ^ C) | T) & C) | M.
// tmp must be two scratch buffers of window size.
func starThruWords(dst, m, c []uint64, tmpT, tmpS []uint64) {
	bitstream.AdvanceWords(tmpT, m, 1)
	for i := range tmpT {
		tmpT[i] &= c[i]
	}
	bitstream.AddWords(tmpS, tmpT, c)
	for i := range dst {
		dst[i] = ((tmpS[i]^c[i])|tmpT[i])&c[i] | m[i]
	}
}
