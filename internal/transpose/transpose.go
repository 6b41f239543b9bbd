// Package transpose converts a byte stream into the eight basis bitstreams
// of the Parabix representation and back.
//
// Basis bitstream b_j holds bit j of every input byte: following the paper's
// convention, b_0 carries the most significant bit (so the ASCII byte
// 01100001 for 'a' sets b_1, b_2 and b_7 at that position). The transpose is
// the preprocessing kernel the paper runs on the GPU before bitstream
// execution; here it is a pure CPU routine that the simulator charges for.
//
// The transform is computed word-parallel, in two levels per 64-byte block.
// Each run of 8 input bytes is an 8×8 bit matrix transposed with the Hacker's
// Delight shuffle (the same trick Parabix's s2p kernel uses); the eight
// resulting words are then an 8×8 byte matrix, transposed by the same three
// exchanges one level up, whose rows are the block's eight basis words. The
// hot loop touches whole 64-bit words and never gathers a byte.
package transpose

import (
	"encoding/binary"
	"fmt"

	"bitgen/internal/bitstream"
)

// NumBasis is the number of basis bitstreams (one per bit of a byte).
const NumBasis = 8

// Basis holds the eight transposed bitstreams of an input. Basis[0] is the
// most significant bit of each byte.
//
// A Basis produced by TransposeInto owns reusable backing buffers: passing
// it to TransposeInto again overwrites them in place with no allocation
// (provided the input does not outgrow the buffers' capacity), which is the
// steady state of the streaming scanner.
type Basis struct {
	Streams [NumBasis]*bitstream.Stream
	N       int // input length in bytes == stream length in bits

	// Ext holds extended basis streams beyond the eight raw bit-planes:
	// shared character-class streams an engine computes once per scan and
	// binds here so every group's program reads them through Bit(8+i).
	// TransposeInto leaves Ext alone; the engine rebinds it per chunk.
	Ext []*bitstream.Stream
	// Pres holds the extended streams' presence rows, PresW words a line:
	// bit j of row l (word j/64 of Pres[PresW*l:]) is set exactly when Ext[j]
	// has a set bit in words [LineWords*l, LineWords*(l+1)). The engine writes
	// them with the streams; Present ORs them over a range.
	Pres  []uint64
	PresW int

	// words are the owned backing buffers the Streams point into; headers
	// hold the eight Stream values so reuse allocates nothing.
	words   [NumBasis][]uint64
	headers [NumBasis]bitstream.Stream
}

// Transpose computes the serial-to-parallel transform of text.
func Transpose(text []byte) *Basis {
	return TransposeInto(nil, text)
}

// TransposeInto computes the serial-to-parallel transform of text into dst,
// reusing dst's backing buffers when their capacity suffices. A nil dst
// allocates a fresh Basis. It returns the basis written.
func TransposeInto(dst *Basis, text []byte) *Basis {
	n := len(text)
	nw := bitstream.WordsFor(n)
	if dst == nil {
		dst = &Basis{}
	}
	dst.N = n
	for j := 0; j < NumBasis; j++ {
		if cap(dst.words[j]) < nw {
			dst.words[j] = make([]uint64, nw)
		}
		dst.words[j] = dst.words[j][:nw]
	}
	transposeWords(&dst.words, text)
	for j := 0; j < NumBasis; j++ {
		dst.headers[j].Reinit(dst.words[j], n)
		dst.Streams[j] = &dst.headers[j]
	}
	return dst
}

// SetWords points basis stream j at the caller-supplied backing words for n
// bits without copying; used by callers that manage stream storage in an
// arena. The words are overwritten by the next TransposeInto.
func (b *Basis) SetWords(j int, words []uint64) {
	b.words[j] = words
}

// transpose8 transposes an 8×8 bit matrix held row-major in x: byte k of x
// is row k, and bit j of row k becomes bit k of row j. Hacker's Delight
// figure 7-3, the three-exchange network.
func transpose8(x uint64) uint64 {
	t := (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
	x = x ^ t ^ (t << 7)
	t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
	x = x ^ t ^ (t << 14)
	t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
	return x ^ t ^ (t << 28)
}

// transposeWords fills the eight basis word vectors from text, 64 input
// bytes per output word; a final partial block is zero-padded.
func transposeWords(words *[NumBasis][]uint64, text []byte) {
	w := 0
	for ; len(text) >= 64; w, text = w+1, text[64:] {
		transposeBlock(words, w, (*[64]byte)(text))
	}
	if len(text) > 0 {
		var pad [64]byte
		copy(pad[:], text)
		transposeBlock(words, w, &pad)
	}
}

// transposeBlock writes word w of every basis stream from the 64 bytes of
// blk, in two levels. transpose8 turns each 8-byte group g into a word whose
// byte p holds bit p of the group's bytes; basis word p wants that byte from
// every group, at byte g — the transpose of the 8×8 byte matrix of the eight
// words, done by three delta-swap stages over row pairs 4, 2 and 1 apart. Row
// p is then bit p of all 64 bytes, which the MSB-first convention calls basis 7-p.
func transposeBlock(words *[NumBasis][]uint64, w int, blk *[64]byte) {
	r0 := transpose8(binary.LittleEndian.Uint64(blk[0:]))
	r1 := transpose8(binary.LittleEndian.Uint64(blk[8:]))
	r2 := transpose8(binary.LittleEndian.Uint64(blk[16:]))
	r3 := transpose8(binary.LittleEndian.Uint64(blk[24:]))
	r4 := transpose8(binary.LittleEndian.Uint64(blk[32:]))
	r5 := transpose8(binary.LittleEndian.Uint64(blk[40:]))
	r6 := transpose8(binary.LittleEndian.Uint64(blk[48:]))
	r7 := transpose8(binary.LittleEndian.Uint64(blk[56:]))

	const m4, m2, m1 = 0x00000000FFFFFFFF, 0x0000FFFF0000FFFF, 0x00FF00FF00FF00FF
	r0, r4 = swapBlocks(r0, r4, 32, m4)
	r1, r5 = swapBlocks(r1, r5, 32, m4)
	r2, r6 = swapBlocks(r2, r6, 32, m4)
	r3, r7 = swapBlocks(r3, r7, 32, m4)

	r0, r2 = swapBlocks(r0, r2, 16, m2)
	r1, r3 = swapBlocks(r1, r3, 16, m2)
	r4, r6 = swapBlocks(r4, r6, 16, m2)
	r5, r7 = swapBlocks(r5, r7, 16, m2)

	r0, r1 = swapBlocks(r0, r1, 8, m1)
	r2, r3 = swapBlocks(r2, r3, 8, m1)
	r4, r5 = swapBlocks(r4, r5, 8, m1)
	r6, r7 = swapBlocks(r6, r7, 8, m1)

	words[7][w], words[6][w], words[5][w], words[4][w] = r0, r1, r2, r3
	words[3][w], words[2][w], words[1][w], words[0][w] = r4, r5, r6, r7
}

// swapBlocks is one delta swap: a's fields under m<<s trade places with b's under m.
func swapBlocks(a, b uint64, s uint, m uint64) (uint64, uint64) {
	t := (a>>s ^ b) & m
	return a ^ t<<s, b ^ t
}

// Inverse reconstructs the byte stream from the basis (parallel-to-serial).
// It is the round-trip check used by the tests.
func (b *Basis) Inverse() []byte {
	out := make([]byte, b.N)
	for j := 0; j < NumBasis; j++ {
		s := b.Streams[j]
		if s.Len() != b.N {
			panic(fmt.Sprintf("transpose: basis %d has %d bits, want %d", j, s.Len(), b.N))
		}
		mask := byte(0x80 >> uint(j))
		for _, p := range s.Positions() {
			out[p] |= mask
		}
	}
	return out
}

// Bit returns basis stream j: 0-7 are the raw bit-planes (0 = most
// significant bit of each byte); j >= 8 indexes the bound extended
// (shared character-class) streams.
func (b *Basis) Bit(j int) *bitstream.Stream {
	if j < NumBasis {
		return b.Streams[j]
	}
	return b.Ext[j-NumBasis]
}

// LineWords is the width of a presence line in words: 64 bytes of stream,
// one row of Basis.Pres.
const LineWords = 8

// MarkPresence sets bit j in each presence row of rows, w words a row, whose
// line of words has a set bit: row l covers words[LineWords*l:] up to the next
// line, or the end of words.
func MarkPresence(rows []uint64, w, j int, words []uint64) {
	bit, r, i := uint64(1)<<(j%64), j/64, 0
	for ; i+LineWords <= len(words); i, r = i+LineWords, r+w {
		if l := (*[LineWords]uint64)(words[i:]); l[0]|l[1]|l[2]|l[3]|l[4]|l[5]|l[6]|l[7] != 0 {
			rows[r] |= bit
		}
	}
	var tail uint64
	for _, x := range words[i:] {
		tail |= x
	}
	if tail != 0 {
		rows[r] |= bit
	}
}

// Present sets dst, PresW words, to the OR of the presence rows of the lines
// wholly inside words [from, from+n). A stream in that set has a set bit in
// the range; one outside it may still have some in the range's partial edge
// lines, so its absence is only a hint until those words are read.
func (b *Basis) Present(dst []uint64, from, n int) {
	w := b.PresW
	end := min((from+n)/LineWords*w, len(b.Pres))
	rows := b.Pres[min((from+LineWords-1)/LineWords*w, end):end]
	for i := range dst {
		var set uint64
		for r := i; r < len(rows); r += w {
			set |= rows[r]
		}
		dst[i] = set
	}
}

// BytesMoved returns the number of bytes the transpose kernel reads plus
// writes, used by the GPU simulator's traffic accounting (input bytes in,
// the same volume out as bit-planes).
func (b *Basis) BytesMoved() int64 {
	return 2 * int64(b.N)
}
