package kernel

import (
	"math/bits"

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
//   - known zero: no words behind it, the host analog of the all-zero flag a
//     producing instruction leaves for Zero Block Skipping;
//   - deferred: shift(src, k) not yet computed, the source's words and the
//     distance left by a shift the compiler proved safe to delay (compileRun).
//     Readers that fold it (deferredSrc) or answer from the source (any)
//     never compute it; get and mut force it into owned storage, once.
//
// Zero skipping works at tile granularity: the window's ww words are cut into
// at most 64 tiles of tw words and every present register carries a live-tile
// mask, bit t clear meaning tile t holds no set bit. Mask 0 IS the known-zero
// state — there is no second tag — a view's mask is full, a deferred shift's is
// its source's moved by the shift (shiftMask). One storage invariant keeps every
// reader that knows nothing of masks correct: an owned register's words outside
// its live tiles read zero. No clearing pass pays for it: each owned buffer
// remembers across windows which tiles may hold a non-zero word (dirty), and a
// writer that computes the tiles m clears only dirty &^ m — after computing,
// since its destination may be one of its operands (setOwned).
//
// Partial masks are set by the bitwise µops (bin: the operands' masks combined,
// zero runs dropped, a sparse result rescanned), shift, and the probe's flood of
// a loop condition; they are used by the same µops, by sbFuse2 (a pair they
// bound to 0 is known zero, any other runs over whole windows), by any (guards
// and while heads) and by force. Everything else — sbStarThru, sbNot,
// commitWindow, checkCarryBoundary — reads whole windows through get and writes
// whole windows through buf, whose mask is full.
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
	live   []uint64 // live-tile mask of the current value; 0 is known zero
	dirty  []uint64 // tiles of own[v] that may hold a non-zero word
	cur    uint32
	ww     int    // words per window
	endBit int    // valid bits per window; registers hold zeros from there on
	tw     int    // words per tile
	full   uint64 // the mask of a window with every tile live
	// zeros is the shared read-only all-zero operand get hands out for
	// known-zero registers (at least ww words once anyone asked).
	zeros []uint64
	// alloc provides backing storage for register buffers; nil means plain
	// make. Sessions wire it to a pooled arena tracker.
	alloc func(n int) []uint64
}

// regState says what val holds for a register whose mask is not 0; it means
// nothing for a known-zero one.
type regState uint8

const (
	regOwned regState = iota
	regView
	regDeferred
)

// grow sizes the file for numVars variables. Registers hold nothing of a
// program between windows but storage, so one file serves every program an
// executor runs: the epoch invalidates values, dirty describes the storage.
func (r *regFile) grow(numVars int) {
	r.own, r.val, r.shiftK = grow(r.own, numVars), grow(r.val, numVars), grow(r.shiftK, numVars)
	r.state, r.epoch, r.live, r.dirty = grow(r.state, numVars), grow(r.epoch, numVars), grow(r.live, numVars), grow(r.dirty, numVars)
}

func (r *regFile) newWords(n int) []uint64 {
	if r.alloc != nil {
		return r.alloc(n)
	}
	return make([]uint64, n)
}

// beginWindow invalidates all registers and sets the window size to ww words.
// Tiles are as narrow as fits the widest window seen into 64 and never narrow
// again, so the windows of a run — first and last lack a margin, a grown
// overlap adds words — share one cut and a new width costs nothing per
// register: dirty bits of tiles past the window are kept for when it is wide
// again, and its last tile, which it may hold only part of, is never marked
// clean (the &^ r.full>>1 of setOwned and flood). A wider tile re-cuts
// everything.
func (r *regFile) beginWindow(ww int) {
	r.cur++
	r.endBit = ww * 64
	if ww == r.ww {
		return
	}
	r.ww = ww
	if tw := (ww + 63) / 64; tw > r.tw {
		r.tw = tw
		for v := range r.dirty {
			r.dirty[v] = ^uint64(0)
		}
	}
	nt := (ww + r.tw - 1) / r.tw
	r.full = ^uint64(0) >> (64 - nt)
}

// savedReg is a register as save found it, its words kept by the caller.
type savedReg struct {
	live uint64
	has  bool
}

// save copies v's value into buf, ww words, and returns its state. A deferred
// v would be forced; the fork saves none: it saves variables defined twice,
// and compileRun defers only a shift into a variable defined once.
func (r *regFile) save(v ir.VarID, buf []uint64) savedReg {
	s := savedReg{live: r.live[v], has: r.has(v)}
	if s.has && s.live != 0 {
		copy(buf[:r.ww], r.get(v))
	}
	return s
}

// restore makes v, in the window it was saved in, the register save found, as
// owned storage holding buf's words — zero outside the live tiles, as the
// saved words were.
func (r *regFile) restore(v ir.VarID, s savedReg, buf []uint64) {
	switch {
	case !s.has:
		r.drop(v)
	case s.live == 0:
		r.zero(v)
	default:
		copy(r.storage(v), buf[:r.ww])
		r.setOwned(v, r.full, s.live)
	}
}

// drop makes v absent in the current window.
func (r *regFile) drop(v ir.VarID) { r.epoch[v] = r.cur - 1 }

// has reports whether v holds a value in the current window.
func (r *regFile) has(v ir.VarID) bool { return r.epoch[v] == r.cur }

// isZero reports whether v is known to be all zero in the current window. A
// false answer says nothing: masks are upper bounds.
func (r *regFile) isZero(v ir.VarID) bool {
	return r.epoch[v] == r.cur && r.live[v] == 0
}

// storage returns v's owned words sized to the window for a writer that ends
// with setOwned; v's state is untouched, the words may be an operand's.
func (r *regFile) storage(v ir.VarID) []uint64 {
	b := r.own[v]
	if cap(b) < r.ww {
		b = r.newWords(r.ww)
		r.dirty[v] = ^uint64(0)
	}
	b = b[:r.ww]
	r.own[v] = b
	return b
}

// setOwned makes v the owned register its storage now holds: the writer stored
// every word of the tiles wrote, all zeros in those outside live. Dirty tiles
// it left alone are cleared here, after the computation — the storage may have
// been an operand.
func (r *regFile) setOwned(v ir.VarID, wrote, live uint64) {
	if live == 0 {
		r.zero(v)
		return
	}
	b := r.own[v]
	r.clearTiles(b, r.dirty[v]&^wrote)
	r.val[v], r.state[v], r.epoch[v] = b, regOwned, r.cur
	r.live[v], r.dirty[v] = live, r.dirty[v]&^(r.full>>1)|live
}

// buf returns owned storage for writing v whole, allocating or resizing as
// needed and marking v present with every tile live in the current window.
// Contents are unspecified. When v was already owned this window the same
// words come back, so an elementwise op may overwrite its own operand.
func (r *regFile) buf(v ir.VarID) []uint64 {
	b := r.storage(v)
	r.val[v], r.state[v], r.epoch[v] = b, regOwned, r.cur
	r.live[v], r.dirty[v] = r.full, r.dirty[v]|r.full
	return b
}

// get returns v's current-window value for reading, or nil when v is absent.
func (r *regFile) get(v ir.VarID) []uint64 {
	switch {
	case r.epoch[v] != r.cur:
		return nil
	case r.live[v] == 0:
		return r.zeroWords()
	case r.state[v] == regDeferred:
		return r.force(v)
	}
	return r.val[v]
}

// zeroWords returns the shared all-zero operand, never to be written.
func (r *regFile) zeroWords() []uint64 {
	if len(r.zeros) < r.ww {
		r.zeros = r.newWords(r.ww)
		clear(r.zeros)
	}
	return r.zeros[:r.ww]
}

// mut returns v's value in owned storage with every tile live, for the few
// sites that modify a register in place: a view is copied, a known-zero or
// absent register is zero-filled, a deferred shift computed, an owned one
// returned as is — its words outside the live tiles are zero already.
func (r *regFile) mut(v ir.VarID) []uint64 {
	src := r.get(v)
	if src != nil && r.live[v] != 0 && r.state[v] == regOwned {
		r.live[v], r.dirty[v] = r.full, r.dirty[v]|r.full
		return src
	}
	b := r.buf(v)
	if copy(b, src) == 0 {
		clear(b) // absent
	}
	return b
}

// shiftMask returns the tiles shift(x, k) can be live in when x is live in m:
// every word moves k/64 words and spills into the next one.
func (r *regFile) shiftMask(m uint64, k int) uint64 {
	q, spill := uint(0), true // |k| < 64 stays within a word and its neighbour
	if k <= -64 || k >= 64 {
		tile := 64 * r.tw
		q, spill = uint(max(k, -k)/tile), k%tile != 0
	}
	if k < 0 {
		if m >>= q; spill {
			m |= m >> 1
		}
		return m
	}
	if m <<= q; spill {
		m |= m << 1
	}
	return m & r.full
}

// shift sets v = shift(src, k), src live in the tiles m: computed at once, or
// when lazy only recorded — src must then stay unwritten while v can be read
// this window.
func (r *regFile) shift(v ir.VarID, src []uint64, m uint64, k int32, lazy bool) {
	if m = r.shiftMask(m, int(k)); m == 0 {
		r.zero(v)
		return
	}
	r.val[v], r.state[v], r.epoch[v] = src, regDeferred, r.cur
	r.shiftK[v], r.live[v] = k, m
	if !lazy {
		r.force(v)
	}
}

// deferredSrc returns the source and distance of a deferred v, present this
// window and not known zero, that fusedShiftBin can fold: |k| in 1..63
// (ir.Validate admits no 0).
func (r *regFile) deferredSrc(v ir.VarID) (src []uint64, k int, ok bool) {
	k = int(r.shiftK[v])
	return r.val[v], k, r.state[v] == regDeferred && r.live[v] != 0 && -64 < k && k < 64
}

// force computes a deferred v into its owned storage — the live tiles only
// for a bit distance, as an OR with nothing — window tail masked.
func (r *regFile) force(v ir.VarID) []uint64 {
	src, k, m := r.val[v], int(r.shiftK[v]), r.live[v]
	if -64 < k && k < 64 && k != 0 {
		r.bin(sbShiftOr, v, src, k, r.zeroWords(), m)
	} else {
		b := r.storage(v)
		bitstream.ShiftWords(b, src, k)
		r.maskTail(b)
		r.setOwned(v, r.full, m)
	}
	return r.get(v)
}

// any reports whether v, present this window, has a bit set, scanning its live
// tiles only. A deferred shift moves bit i to i+k and keeps [0, endBit): of the
// source tiles that reach v's live ones, bits [-k, endBit-k) count.
func (r *regFile) any(v ir.VarID) bool {
	m, w, lo, hi := r.live[v], r.val[v], 0, r.ww*64
	if m != 0 && r.state[v] == regDeferred {
		k := int(r.shiftK[v])
		m, lo, hi = r.shiftMask(m, -k), max(-k, 0), min(r.endBit-k, hi)
	} else if m == r.full {
		return anyWords(w)
	}
	for m != 0 {
		run, from, to := r.lowRun(m)
		m &^= run
		if anyBits(w, max(lo, from*64), min(hi, to*64)) {
			return true
		}
	}
	return false
}

// bin stores v = code(shift(a, k), c) for the three shift codes, v = code(a, c)
// with k 0 for the four plain ones; m != 0 are the tiles binMask bounds the
// result by. A full m — or one in so many runs that walking them would cost
// more (runCostWords) — is one kernel call over the window. Otherwise the kernel
// runs over each maximal run of live tiles, a's word across the edge the shift
// pulls from carried in. v's storage may be a's or c's as in the whole-window
// pass: inside a run the kernel keeps its own word order, the carried word lies
// in a tile outside m, which no run writes, and stale tiles are cleared only
// afterwards (setOwned). A run that stored all zeros leaves the mask.
func (r *regFile) bin(code sbOpCode, v ir.VarID, a []uint64, k int, c []uint64, m uint64) {
	dst := r.storage(v)
	wrote, live := m, m
	if m == r.full || bits.OnesCount64(m&^(m<<1))*runCostWords+bits.OnesCount64(m)*r.tw >= r.ww {
		wrote = r.full // every tile outside m is stored too: as the zeros m says it is
		live = r.tighten(dst, m, binWords(code, dst, a, c, k, 0))
	} else {
		for rest := m; rest != 0; {
			run, lo, hi := r.lowRun(rest)
			rest &^= run
			var in uint64
			if k > 0 && lo > 0 {
				in = a[lo-1]
			} else if k < 0 && hi < r.ww {
				in = a[hi]
			}
			if binWords(code, dst[lo:hi], a[lo:hi], c[lo:hi], k, in) == 0 {
				live &^= run
			}
		}
	}
	if k != 0 && live != 0 {
		r.maskTail(dst) // only a shift moves bits past endBit
	}
	r.setOwned(v, wrote, live)
}

// runCostWords is what starting the kernel on one more run of tiles costs, in
// words of kernel work (15–20 ns against ≈ 1 ns a word, rounded up in favour of
// the known quantity, the whole-window pass): eight scattered tiles of a
// 258-word window, which is where sparseColumns stops looking for them.
const runCostWords = 24

// sparseColumns is the most bit columns — set bits in the OR of a result's
// words, which the AND-type kernels return anyway — for which bin looks through
// a whole-window result for the tiles it occupies. A stream with b set bits has
// at most b columns: few columns is the cheap sign of a sparse result, such as
// the match of two dense class streams, whose masks say nothing.
const sparseColumns = 8

// tighten returns the live tiles of b, whose words OR to or and are zero
// outside the tiles m: m itself unless or has few columns.
func (r *regFile) tighten(b []uint64, m, or uint64) uint64 {
	if or == 0 {
		return 0
	}
	if bits.OnesCount64(or) > sparseColumns {
		return m
	}
	m = 0
	for i, x := range b {
		if x != 0 {
			m |= 1 << uint(i/r.tw)
		}
	}
	return m
}

// flood sets v's bits [0, left) — the saturation probe's left overlap margin
// (runWindowToFixpoint) — keeping its others, and marks live only the tiles it
// touched: a known-zero loop condition becomes a register with the margin's
// tiles live for the clear of what its storage last held, not of the window,
// and what the probe computes from it stays as narrow. No loop reaches right:
// Compile refuses one whose carried values read further ahead each iteration.
func (r *regFile) flood(v ir.VarID, left int) {
	switch {
	case r.has(v) && r.live[v] != 0 && r.state[v] != regOwned:
		r.mut(v) // every tile live: a view copied, a deferred shift computed
	case !r.has(v) || r.live[v] == 0:
		b := r.storage(v)
		r.clearTiles(b, r.dirty[v])
		r.val[v], r.state[v], r.epoch[v] = b, regOwned, r.cur
		r.live[v], r.dirty[v] = 0, r.dirty[v]&^(r.full>>1)
	}
	if left <= 0 {
		return
	}
	b := r.val[v]
	for i := 0; i < left/64; i++ {
		b[i] = ^uint64(0)
	}
	if left%64 != 0 {
		b[left/64] |= (1 << (uint(left) % 64)) - 1
	}
	touched := r.tiles(0, (left+63)/64)
	r.live[v], r.dirty[v] = r.live[v]|touched, r.dirty[v]|touched
}

// clearTiles zeroes the tiles m of b.
func (r *regFile) clearTiles(b []uint64, m uint64) {
	for m &= r.full; m != 0; {
		run, lo, hi := r.lowRun(m)
		m &^= run
		clear(b[lo:hi])
	}
}

// tiles returns the mask of the tiles holding words [lo, hi), lo < hi.
func (r *regFile) tiles(lo, hi int) uint64 { return runMask(lo/r.tw, (hi-1)/r.tw-lo/r.tw+1) }

// lowRun finds the lowest maximal run of live tiles of m != 0: its mask and the
// words [lo, hi) of the window it covers.
func (r *regFile) lowRun(m uint64) (run uint64, lo, hi int) {
	t := bits.TrailingZeros64(m)
	n := bits.TrailingZeros64(^(m >> t))
	return runMask(t, n), t * r.tw, min((t+n)*r.tw, r.ww)
}

// runMask is the mask of tiles [t, t+n), n in 1..64.
func runMask(t, n int) uint64 { return ^uint64(0) >> (64 - n) << t }

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
	r.live[v], r.epoch[v] = 0, r.cur
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
	r.val[v], r.state[v], r.epoch[v] = b, regView, r.cur
	r.live[v] = r.full
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
