package transpose

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTransposeKnownByte(t *testing.T) {
	// 'a' = 0x61 = 01100001: bits 1, 2 and 7 (MSB-first) are set.
	b := Transpose([]byte("a"))
	want := map[int]bool{1: true, 2: true, 7: true}
	for j := 0; j < NumBasis; j++ {
		if got := b.Bit(j).Test(0); got != want[j] {
			t.Errorf("basis %d at position 0 = %v, want %v", j, got, want[j])
		}
	}
}

func TestTransposePositions(t *testing.T) {
	text := []byte("ab") // 'a'=0x61, 'b'=0x62
	b := Transpose(text)
	// Basis 6 (bit value 0x02) is set only for 'b'; basis 7 (0x01) only for 'a'.
	if got := b.Bit(6).Positions(); len(got) != 1 || got[0] != 1 {
		t.Errorf("basis 6 positions = %v, want [1]", got)
	}
	if got := b.Bit(7).Positions(); len(got) != 1 || got[0] != 0 {
		t.Errorf("basis 7 positions = %v, want [0]", got)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	b := Transpose(nil)
	if b.N != 0 {
		t.Fatalf("N = %d, want 0", b.N)
	}
	if got := b.Inverse(); len(got) != 0 {
		t.Fatalf("Inverse of empty = %v", got)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(Transpose(data).Inverse(), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripLong(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 100_000)
	rng.Read(data)
	if !bytes.Equal(Transpose(data).Inverse(), data) {
		t.Fatal("100k round trip failed")
	}
}

func TestBytesMoved(t *testing.T) {
	if got := Transpose(make([]byte, 1000)).BytesMoved(); got != 2000 {
		t.Fatalf("BytesMoved = %d, want 2000", got)
	}
}

// naiveTranspose is the per-byte bit-scatter reference the word-parallel
// implementation replaced; the differential tests pin them together.
func naiveTranspose(text []byte) *Basis {
	n := len(text)
	b := &Basis{N: n}
	words := make([][]uint64, NumBasis)
	nw := (n + 63) / 64
	for j := range words {
		words[j] = make([]uint64, nw)
	}
	for i, c := range text {
		wi, bit := i/64, uint64(1)<<(uint(i)%64)
		for j := 0; j < NumBasis; j++ {
			if c&(0x80>>uint(j)) != 0 {
				words[j][wi] |= bit
			}
		}
	}
	for j := range words {
		b.headers[j].Reinit(words[j], n)
		b.Streams[j] = &b.headers[j]
	}
	return b
}

// sameBasis fails the test, naming the case by format and args, unless got and
// want agree on all eight streams.
func sameBasis(t *testing.T, got, want *Basis, format string, args ...any) {
	t.Helper()
	for j := 0; j < NumBasis; j++ {
		if !got.Bit(j).Equal(want.Bit(j)) {
			t.Fatalf("%s: basis %d mismatch:\ngot  %s\nwant %s", fmt.Sprintf(format, args...), j, got.Bit(j), want.Bit(j))
		}
	}
}

// TestWordParallelMatchesNaive differentially checks the two-level block
// transpose against the scalar reference, exhaustively where it can be: every
// length through four blocks and a byte (each tail length of the zero-padded
// last block, at each block count), and within one block every byte value at
// every position — each input bit alone and with every neighbour, through all
// three bit stages and all three byte stages.
func TestWordParallelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 0; n <= 257; n++ {
		data := make([]byte, n)
		rng.Read(data)
		sameBasis(t, Transpose(data), naiveTranspose(data), "n=%d", n)
	}
	for _, n := range []int{1000, 4096, 4097} {
		data := make([]byte, n)
		rng.Read(data)
		sameBasis(t, Transpose(data), naiveTranspose(data), "n=%d", n)
	}
	var block [64]byte
	dst := &Basis{}
	for pos := range block {
		for v := 0; v < 256; v++ {
			block[pos] = byte(v)
			sameBasis(t, TransposeInto(dst, block[:]), naiveTranspose(block[:]), "byte %#02x at %d", v, pos)
		}
		block[pos] = 0
	}
}

// TestQuickWordParallelMatchesNaive fuzzes the differential.
func TestQuickWordParallelMatchesNaive(t *testing.T) {
	f := func(data []byte) bool {
		got, want := Transpose(data), naiveTranspose(data)
		for j := 0; j < NumBasis; j++ {
			if !got.Bit(j).Equal(want.Bit(j)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTransposeIntoReuse verifies that reusing a Basis overwrites it fully
// (no stale bits from a previous, larger input) and allocates nothing in
// steady state.
func TestTransposeIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	long := make([]byte, 1000)
	for i := range long {
		long[i] = 0xff
	}
	b := TransposeInto(nil, long)
	short := make([]byte, 130)
	rng.Read(short)
	TransposeInto(b, short)
	sameBasis(t, b, naiveTranspose(short), "reused")
	// Equal stops at N; a stale bit past it, in the last word or in a word
	// the shorter input no longer covers, would still reach word-level readers.
	for j := 0; j < NumBasis; j++ {
		words := b.Bit(j).Words()
		if len(words) != 3 || words[2]>>(130-128) != 0 {
			t.Fatalf("reused basis %d keeps stale bits past its %d: %d words, last %#x", j, b.N, len(words), words[len(words)-1])
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		TransposeInto(b, short)
	})
	if allocs != 0 {
		t.Fatalf("TransposeInto reuse allocates %v per run, want 0", allocs)
	}
}

func BenchmarkTransposeInto(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(5)).Read(data)
	dst := TransposeInto(nil, data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TransposeInto(dst, data)
	}
}

func BenchmarkTransposeNaive(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(5)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveTranspose(data)
	}
}
