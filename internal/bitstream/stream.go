// Package bitstream implements the fundamental data type of Parabix-style
// bit-parallel pattern matching: an unbounded bitstream.
//
// A Stream holds one bit per input position. By convention (following the
// paper), bit i of a match stream S_R is 1 iff a match of the regular
// expression R ends at input position i. Streams are stored LSB-first: bit i
// lives in word i/64 at bit position i%64, so the paper's "right shift by k"
// (advancing cursors toward the future, out[i+k] = in[i]) is a word-level
// *left* shift with carries. To avoid that permanent source of confusion the
// API names the two shift directions Advance (paper >>) and Lookback
// (paper <<) rather than exposing raw shift operators.
package bitstream

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// WordBits is the number of bits per storage word.
const WordBits = 64

// Stream is a fixed-length view of an unbounded bitstream. All positions at
// or beyond Len() are conceptually zero. The zero value is an empty stream.
type Stream struct {
	words []uint64
	n     int // number of valid bits
}

// WordsFor returns the number of 64-bit words needed to hold n bits.
func WordsFor(n int) int {
	return (n + WordBits - 1) / WordBits
}

// New returns an all-zero stream of n bits.
func New(n int) *Stream {
	if n < 0 {
		panic(fmt.Sprintf("bitstream: negative length %d", n))
	}
	return &Stream{words: make([]uint64, WordsFor(n)), n: n}
}

// NewOnes returns an all-ones stream of n bits.
func NewOnes(n int) *Stream {
	s := New(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.maskTail()
	return s
}

// FromWords wraps the given words as a stream of n bits. The slice is used
// directly (not copied); bits beyond n must be zero and are cleared
// defensively.
func FromWords(words []uint64, n int) *Stream {
	if len(words) < WordsFor(n) {
		panic(fmt.Sprintf("bitstream: %d words cannot hold %d bits", len(words), n))
	}
	s := &Stream{words: words[:WordsFor(n)], n: n}
	s.maskTail()
	return s
}

// FromBits builds a stream from a string of '1', '0' and '.' runes
// (dots read as zeros, matching the paper's figures). Whitespace is ignored.
// Position 0 is the leftmost rune.
func FromBits(pattern string) *Stream {
	clean := make([]byte, 0, len(pattern))
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; c {
		case '0', '1', '.':
			clean = append(clean, c)
		case ' ', '\t', '\n', '_':
			// separator, ignore
		default:
			panic(fmt.Sprintf("bitstream: invalid rune %q in bit pattern", c))
		}
	}
	s := New(len(clean))
	for i, c := range clean {
		if c == '1' {
			s.Set(i)
		}
	}
	return s
}

// FromPositions returns a stream of n bits with ones at the given positions.
func FromPositions(n int, positions ...int) *Stream {
	s := New(n)
	for _, p := range positions {
		s.Set(p)
	}
	return s
}

// Len returns the number of valid bits.
func (s *Stream) Len() int { return s.n }

// Extend returns a copy of s lengthened by extra zero bits. Match streams
// use it to append the end-of-input position: a pattern that matches the
// empty string also matches at offset Len() (after the last byte), one
// position past what a one-bit-per-input-byte stream can hold.
func (s *Stream) Extend(extra int) *Stream {
	if extra < 0 {
		panic(fmt.Sprintf("bitstream: Extend(%d) negative", extra))
	}
	out := New(s.n + extra)
	copy(out.words, s.words)
	return out
}

// Words exposes the backing words. The final word's bits beyond Len() are
// always zero. Callers must not change the slice length.
func (s *Stream) Words() []uint64 { return s.words }

// Clone returns an independent copy of s.
func (s *Stream) Clone() *Stream {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Stream{words: w, n: s.n}
}

// Test reports whether bit i is set. Positions outside [0, Len()) read as 0.
func (s *Stream) Test(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/WordBits]&(1<<(uint(i)%WordBits)) != 0
}

// Set sets bit i to 1. It panics if i is out of range.
func (s *Stream) Set(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstream: Set(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/WordBits] |= 1 << (uint(i) % WordBits)
}

// Clear sets bit i to 0. It panics if i is out of range.
func (s *Stream) Clear(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstream: Clear(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/WordBits] &^= 1 << (uint(i) % WordBits)
}

// Popcount returns the number of set bits.
func (s *Stream) Popcount() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Any reports whether at least one bit is set (the truth value of a
// bitstream-program condition).
func (s *Stream) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Positions returns the indices of all set bits in ascending order. The
// result is presized from Popcount, so extraction never reallocates while
// appending.
func (s *Stream) Positions() []int {
	out := make([]int, 0, s.Popcount())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*WordBits+b)
			w &= w - 1
		}
	}
	return out
}

// NextSetBit returns the position of the first set bit at or after from,
// or -1 if none. It allows iterating matches without materializing the
// whole position list.
func (s *Stream) NextSetBit(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return -1
	}
	wi := from / WordBits
	w := s.words[wi] >> (uint(from) % WordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*WordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// Word is one word of a Compact stream: the bits of word Index.
type Word struct {
	Index int
	Bits  uint64
}

// Compact is a stream held as its non-zero words, ascending by Index.
type Compact []Word

// AppendWords appends the non-zero ones of words, words[i] being word base+i,
// to c with no branch: every word is stored, and kept only if non-zero.
func (c Compact) AppendWords(words []uint64, base int) Compact {
	n := len(c)
	c = slices.Grow(c, len(words))[:n+len(words)]
	for i, w := range words {
		c[n] = Word{Index: base + i, Bits: w}
		n += int((w | -w) >> 63)
	}
	return c[:n]
}

// Popcount returns the number of set bits.
func (c Compact) Popcount() (n int) {
	for _, w := range c {
		n += bits.OnesCount64(w.Bits)
	}
	return n
}

// Stream expands c into a new n-bit stream.
func (c Compact) Stream(n int) *Stream {
	s := New(n)
	for _, w := range c {
		s.words[w.Index] = w.Bits
	}
	return s
}

// Equal reports whether two streams have the same length and bits.
func (s *Stream) Equal(t *Stream) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// String renders the stream in the paper's figure style: '1' for set bits
// and '.' for zeros, position 0 leftmost.
func (s *Stream) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		if s.Test(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}

// maskTail clears bits at positions >= n in the final word, preserving the
// invariant that out-of-range bits are zero.
func (s *Stream) maskTail() {
	if s.n%WordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.n) % WordBits)) - 1
	}
}

func (s *Stream) checkSameLen(t *Stream) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitstream: length mismatch %d vs %d", s.n, t.n))
	}
}

// And returns s & t as a new stream.
func (s *Stream) And(t *Stream) *Stream {
	s.checkSameLen(t)
	out := New(s.n)
	for i := range s.words {
		out.words[i] = s.words[i] & t.words[i]
	}
	return out
}

// Or returns s | t as a new stream.
func (s *Stream) Or(t *Stream) *Stream {
	s.checkSameLen(t)
	out := New(s.n)
	for i := range s.words {
		out.words[i] = s.words[i] | t.words[i]
	}
	return out
}

// Xor returns s ^ t as a new stream.
func (s *Stream) Xor(t *Stream) *Stream {
	s.checkSameLen(t)
	out := New(s.n)
	for i := range s.words {
		out.words[i] = s.words[i] ^ t.words[i]
	}
	return out
}

// AndNot returns s &^ t as a new stream.
func (s *Stream) AndNot(t *Stream) *Stream {
	s.checkSameLen(t)
	out := New(s.n)
	for i := range s.words {
		out.words[i] = s.words[i] &^ t.words[i]
	}
	return out
}

// Not returns the bounded complement ^s (within Len()).
func (s *Stream) Not() *Stream {
	out := New(s.n)
	for i := range s.words {
		out.words[i] = ^s.words[i]
	}
	out.maskTail()
	return out
}

// Advance implements the paper's "S >> k": each set bit moves k positions
// toward the future (out[i+k] = in[i]); bits shifted past Len() are lost and
// zeros enter at the start. k must be non-negative.
func (s *Stream) Advance(k int) *Stream {
	out := New(s.n)
	AdvanceWords(out.words, s.words, k)
	out.maskTail()
	return out
}

// Lookback implements the paper's "S << k": the inverse cursor movement
// (out[i] = in[i+k]); zeros enter at the end. k must be non-negative.
func (s *Stream) Lookback(k int) *Stream {
	out := New(s.n)
	LookbackWords(out.words, s.words, k)
	return out
}

// Shift applies a signed shift in paper stream terms: k > 0 advances
// (paper >>), k < 0 looks back (paper <<), k == 0 copies.
func (s *Stream) Shift(k int) *Stream {
	if k >= 0 {
		return s.Advance(k)
	}
	return s.Lookback(-k)
}

// Add returns the arithmetic sum s + t, treating both streams as unbounded
// little-endian integers (bit i has weight 2^i). Carries ripple toward
// higher positions, i.e. toward the future — the primitive behind Parabix's
// MatchStar, which computes the Kleene closure of a character class without
// a loop. A final carry past Len() is dropped.
func (s *Stream) Add(t *Stream) *Stream {
	s.checkSameLen(t)
	out := New(s.n)
	AddWords(out.words, s.words, t.words)
	out.maskTail()
	return out
}

// AddWords computes dst = x + y over little-endian word vectors of equal
// length, dropping the final carry.
func AddWords(dst, x, y []uint64) {
	var carry uint64
	for i := range x {
		sum := x[i] + y[i]
		c1 := uint64(0)
		if sum < x[i] {
			c1 = 1
		}
		sum2 := sum + carry
		if sum2 < sum {
			c1 = 1
		}
		dst[i] = sum2
		carry = c1
	}
}

// MatchStar computes the Kleene-closure smear of marker ends through a
// character class: given end-position markers M and class stream C, the
// result marks every position p such that either p is in M, or some m in M
// is followed by a run of class bytes covering m+1..p. This is the Parabix
// MatchStar identity (conjugated to end-position markers), built from one
// advance and one addition:
//
//	T = (M >> 1) & C
//	result = ((((T + C) ^ C) | T) & C) | M
//
// The "| T" step refills the holes the addition leaves at non-lowest
// markers sharing one class run.
func MatchStar(m, c *Stream) *Stream {
	t := m.Advance(1).And(c)
	return t.Add(c).Xor(c).Or(t).And(c).Or(m)
}

// AdvanceWords shifts src k bit positions toward higher indices into dst.
// Zeros fill the vacated low positions; k >= len(src)*64 clears dst. dst and
// src must have equal length — a mismatch panics rather than leaving part of
// dst untouched. dst may alias src exactly (the window executor shifts a
// register into itself): whole words move by copy, the bit loop runs
// downward, so every word is read before it is overwritten.
func AdvanceWords(dst, src []uint64, k int) {
	if k < 0 {
		panic("bitstream: AdvanceWords with negative k")
	}
	wordOff := checkShift(dst, src, k)
	if wordOff < 0 {
		return
	}
	// dst[wordOff+i] takes src[i] (and the bits src[i-1] spills upward).
	d, s := dst[wordOff:], src[:len(src)-wordOff]
	if bitOff := uint(k) % WordBits; bitOff == 0 {
		copy(d, s)
	} else {
		// Each source word is loaded once and carried to its neighbour. The
		// modulo tells the compiler r < 64 too, so the loop's shifts compile
		// to single instructions; the reslice, that d is as long as s.
		r := (WordBits - bitOff) % WordBits
		d = d[:len(s)]
		hi := s[len(s)-1]
		for i := len(s) - 1; i >= 1; i-- {
			lo := s[i-1]
			d[i] = hi<<bitOff | lo>>r
			hi = lo
		}
		d[0] = hi << bitOff
	}
	clear(dst[:wordOff])
}

// LookbackWords shifts src k bit positions toward lower indices into dst.
// Zeros fill the vacated high positions. Lengths and aliasing are as for
// AdvanceWords (the bit loop runs upward here).
func LookbackWords(dst, src []uint64, k int) {
	if k < 0 {
		panic("bitstream: LookbackWords with negative k")
	}
	wordOff := checkShift(dst, src, k)
	if wordOff < 0 {
		return
	}
	// dst[i] takes src[wordOff+i] (and the bits src[wordOff+i+1] spills
	// downward).
	m := len(src) - wordOff
	d, s := dst[:m], src[wordOff:]
	if bitOff := uint(k) % WordBits; bitOff == 0 {
		copy(d, s)
	} else {
		r := (WordBits - bitOff) % WordBits
		d = d[:len(s)]
		lo := s[0]
		for i, hi := range s[1:] {
			d[i] = lo>>bitOff | hi<<r
			lo = hi
		}
		d[m-1] = lo >> bitOff
	}
	clear(dst[m:])
}

// checkShift validates a word shift's operands and resolves its whole-word
// offset. It returns -1 when nothing is left to move (empty operands, or a
// shift of at least the full length, for which dst has been cleared).
func checkShift(dst, src []uint64, k int) int {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("bitstream: shift of %d words into %d", len(src), len(dst)))
	}
	wordOff := k / WordBits
	if wordOff >= len(src) {
		clear(dst)
		return -1
	}
	return wordOff
}

// ShiftWords applies a signed paper-style shift over raw words: k > 0
// advances, k < 0 looks back.
func ShiftWords(dst, src []uint64, k int) {
	if k >= 0 {
		AdvanceWords(dst, src, k)
	} else {
		LookbackWords(dst, src, -k)
	}
}

// ---------- in-place operations ----------
//
// The *Into variants write their result into a caller-supplied destination
// stream instead of allocating a new one; they are the allocation-free hot
// path of the streaming scanner. Every elementwise op (And/Or/Xor/AndNot/
// Not/Copy/MatchStar) permits dst to alias any operand: dst[i] is
// written only after the operands' word i is read. ShiftInto/AdvanceInto/
// LookbackInto move words between indices and therefore require dst not to
// alias src (except for a zero shift). All variants panic on a length
// mismatch, mask the tail, and return dst for chaining.

// Reinit re-points s at words[:WordsFor(n)] holding n bits, clearing tail
// bits beyond n. It lets a long-lived Stream header be retargeted at pooled
// backing storage without allocating. The slice is used directly, as in
// FromWords.
func (s *Stream) Reinit(words []uint64, n int) {
	if len(words) < WordsFor(n) {
		panic(fmt.Sprintf("bitstream: %d words cannot hold %d bits", len(words), n))
	}
	s.words = words[:WordsFor(n)]
	s.n = n
	s.maskTail()
}

func (s *Stream) checkInto(t, dst *Stream) {
	s.checkSameLen(t)
	s.checkSameLen(dst)
}

// AndInto sets dst = s & t.
func (s *Stream) AndInto(t, dst *Stream) *Stream {
	s.checkInto(t, dst)
	for i := range s.words {
		dst.words[i] = s.words[i] & t.words[i]
	}
	return dst
}

// OrInto sets dst = s | t.
func (s *Stream) OrInto(t, dst *Stream) *Stream {
	s.checkInto(t, dst)
	for i := range s.words {
		dst.words[i] = s.words[i] | t.words[i]
	}
	return dst
}

// XorInto sets dst = s ^ t.
func (s *Stream) XorInto(t, dst *Stream) *Stream {
	s.checkInto(t, dst)
	for i := range s.words {
		dst.words[i] = s.words[i] ^ t.words[i]
	}
	return dst
}

// AndNotInto sets dst = s &^ t.
func (s *Stream) AndNotInto(t, dst *Stream) *Stream {
	s.checkInto(t, dst)
	for i := range s.words {
		dst.words[i] = s.words[i] &^ t.words[i]
	}
	return dst
}

// NotInto sets dst = ^s (bounded by Len).
func (s *Stream) NotInto(dst *Stream) *Stream {
	s.checkSameLen(dst)
	for i := range s.words {
		dst.words[i] = ^s.words[i]
	}
	dst.maskTail()
	return dst
}

// CopyInto sets dst = s.
func (s *Stream) CopyInto(dst *Stream) *Stream {
	s.checkSameLen(dst)
	copy(dst.words, s.words)
	return dst
}

// AdvanceInto sets dst = s advanced by k (paper >>). dst must not alias s
// unless k == 0.
func (s *Stream) AdvanceInto(k int, dst *Stream) *Stream {
	s.checkSameLen(dst)
	AdvanceWords(dst.words, s.words, k)
	dst.maskTail()
	return dst
}

// LookbackInto sets dst = s looked back by k (paper <<). dst must not alias
// s unless k == 0.
func (s *Stream) LookbackInto(k int, dst *Stream) *Stream {
	s.checkSameLen(dst)
	LookbackWords(dst.words, s.words, k)
	return dst
}

// ShiftInto applies a signed paper-style shift into dst: k > 0 advances,
// k < 0 looks back. dst must not alias s unless k == 0.
func (s *Stream) ShiftInto(k int, dst *Stream) *Stream {
	if k >= 0 {
		return s.AdvanceInto(k, dst)
	}
	return s.LookbackInto(-k, dst)
}

// ZeroInto clears every bit of s in place.
func (s *Stream) ZeroInto() *Stream {
	clear(s.words)
	return s
}

// OnesInto sets every bit of s in place.
func (s *Stream) OnesInto() *Stream {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.maskTail()
	return s
}

// MatchStarInto computes MatchStar(m, c) into dst using the two scratch
// word buffers tmpT and tmpS (each at least as long as the streams' word
// count). dst may alias m or c; the scratch buffers must alias nothing.
func MatchStarInto(dst, m, c *Stream, tmpT, tmpS []uint64) *Stream {
	m.checkInto(c, dst)
	nw := len(m.words)
	tT, tS := tmpT[:nw], tmpS[:nw]
	// T = (M >> 1) & C
	AdvanceWords(tT, m.words, 1)
	for i := range tT {
		tT[i] &= c.words[i]
	}
	// result = ((((T + C) ^ C) | T) & C) | M
	AddWords(tS, tT, c.words)
	for i := range dst.words {
		dst.words[i] = ((tS[i]^c.words[i])|tT[i])&c.words[i] | m.words[i]
	}
	dst.maskTail()
	return dst
}
