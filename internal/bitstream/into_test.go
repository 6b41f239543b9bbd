package bitstream

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomStream returns an n-bit stream with ~density set bits.
func randomStreamD(rng *rand.Rand, n int, density float64) *Stream {
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			s.Set(i)
		}
	}
	return s
}

// TestCompactMatchesStream: a stream's words appended window by window, as
// a kernel commits them, keep exactly its non-zero words in ascending order,
// count its set bits and expand back to it — on streams from empty to dense,
// with a partial last word, appended in one go or in uneven windows.
func TestCompactMatchesStream(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 64, 200, 4097} {
		for _, density := range []float64{0, 0.001, 0.05, 1} {
			s := randomStreamD(rng, n, density)
			for _, window := range []int{len(s.Words()) + 1, 3, 1} {
				var c Compact
				for lo := 0; lo < len(s.Words()); lo += window {
					c = c.AppendWords(s.Words()[lo:min(lo+window, len(s.Words()))], lo)
				}
				nonZero := 0
				for i, w := range s.Words() {
					if w != 0 {
						if nonZero >= len(c) || c[nonZero] != (Word{Index: i, Bits: w}) {
							t.Fatalf("n=%d density %v window %d: word %d missing or out of order in %v", n, density, window, i, c)
						}
						nonZero++
					}
				}
				if len(c) != nonZero || c.Popcount() != s.Popcount() || !c.Stream(n).Equal(s) {
					t.Fatalf("n=%d density %v window %d: %d words for %d non-zero, popcount %d for %d, or a different expansion",
						n, density, window, len(c), nonZero, c.Popcount(), s.Popcount())
				}
			}
		}
	}
}

// TestIntoOpsMatchAllocating checks every *Into op against its allocating
// twin over random streams, including the dst-aliases-operand cases the
// in-place kernel path relies on.
func TestIntoOpsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, 65, 130, 1000} {
		x := randomStreamD(rng, n, 0.4)
		y := randomStreamD(rng, n, 0.6)
		check := func(name string, want *Stream, run func(dst *Stream) *Stream) {
			t.Helper()
			dst := New(n)
			if got := run(dst); !got.Equal(want) {
				t.Fatalf("n=%d %s: got %s want %s", n, name, got, want)
			}
		}
		check("AndInto", x.And(y), func(d *Stream) *Stream { return x.AndInto(y, d) })
		check("OrInto", x.Or(y), func(d *Stream) *Stream { return x.OrInto(y, d) })
		check("XorInto", x.Xor(y), func(d *Stream) *Stream { return x.XorInto(y, d) })
		check("AndNotInto", x.AndNot(y), func(d *Stream) *Stream { return x.AndNotInto(y, d) })
		check("NotInto", x.Not(), func(d *Stream) *Stream { return x.NotInto(d) })
		check("CopyInto", x.Clone(), func(d *Stream) *Stream { return x.CopyInto(d) })
		for _, k := range []int{0, 1, 3, 64, 65, n + 2} {
			check("AdvanceInto", x.Advance(k), func(d *Stream) *Stream { return x.AdvanceInto(k, d) })
			check("LookbackInto", x.Lookback(k), func(d *Stream) *Stream { return x.LookbackInto(k, d) })
			check("ShiftInto(+)", x.Shift(k), func(d *Stream) *Stream { return x.ShiftInto(k, d) })
			check("ShiftInto(-)", x.Shift(-k), func(d *Stream) *Stream { return x.ShiftInto(-k, d) })
		}
		tmpT := make([]uint64, WordsFor(n))
		tmpS := make([]uint64, WordsFor(n))
		check("MatchStarInto", MatchStar(x, y), func(d *Stream) *Stream {
			return MatchStarInto(d, x, y, tmpT, tmpS)
		})

		// Aliased destinations: dst == first operand.
		alias := func(name string, want *Stream, run func(dst *Stream) *Stream) {
			t.Helper()
			d := x.Clone()
			if got := run(d); !got.Equal(want) {
				t.Fatalf("n=%d %s aliased: got %s want %s", n, name, got, want)
			}
		}
		alias("AndInto", x.And(y), func(d *Stream) *Stream { return d.AndInto(y, d) })
		alias("OrInto", x.Or(y), func(d *Stream) *Stream { return d.OrInto(y, d) })
		alias("XorInto", x.Xor(y), func(d *Stream) *Stream { return d.XorInto(y, d) })
		alias("AndNotInto", x.AndNot(y), func(d *Stream) *Stream { return d.AndNotInto(y, d) })
		alias("NotInto", x.Not(), func(d *Stream) *Stream { return d.NotInto(d) })
		alias("MatchStarInto", MatchStar(x, y), func(d *Stream) *Stream {
			return MatchStarInto(d, d, y, tmpT, tmpS)
		})
	}
}

func TestZeroOnesInto(t *testing.T) {
	s := randomStreamD(rand.New(rand.NewSource(1)), 130, 0.5)
	if got := s.ZeroInto().Popcount(); got != 0 {
		t.Fatalf("ZeroInto left %d bits", got)
	}
	if got := s.OnesInto().Popcount(); got != 130 {
		t.Fatalf("OnesInto set %d bits, want 130", got)
	}
	// Tail past Len must stay clear so later Popcounts are exact.
	if w := s.Words(); w[len(w)-1]>>2 != 0 {
		t.Fatalf("OnesInto leaked past Len: %x", w[len(w)-1])
	}
}

func TestReinit(t *testing.T) {
	backing := make([]uint64, 4)
	backing[0] = ^uint64(0)
	backing[1] = ^uint64(0)
	var s Stream
	s.Reinit(backing, 70)
	if s.Len() != 70 || s.Popcount() != 70 {
		t.Fatalf("Reinit(70): len=%d pop=%d", s.Len(), s.Popcount())
	}
	// Shrinking re-masks the new tail.
	backing[0] = ^uint64(0)
	s.Reinit(backing, 3)
	if s.Len() != 3 || s.Popcount() != 3 {
		t.Fatalf("Reinit(3): len=%d pop=%d", s.Len(), s.Popcount())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reinit must panic when words cannot hold n bits")
		}
	}()
	s.Reinit(backing[:1], 65)
}

func TestPositionsPresized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomStreamD(rng, 10_000, 0.3)
	got := s.Positions()
	if len(got) != s.Popcount() {
		t.Fatalf("Positions len=%d, Popcount=%d", len(got), s.Popcount())
	}
	if cap(got) != len(got) {
		t.Fatalf("Positions over-allocated: cap=%d len=%d", cap(got), len(got))
	}
}

// BenchmarkIntoOps proves the in-place ops allocate nothing per operation.
func BenchmarkIntoOps(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(9))
	x := randomStreamD(rng, n, 0.4)
	y := randomStreamD(rng, n, 0.6)
	dst := New(n)
	tmpT := make([]uint64, WordsFor(n))
	tmpS := make([]uint64, WordsFor(n))
	for _, bench := range []struct {
		name string
		run  func()
	}{
		{"AndInto", func() { x.AndInto(y, dst) }},
		{"OrInto", func() { x.OrInto(y, dst) }},
		{"XorInto", func() { x.XorInto(y, dst) }},
		{"AndNotInto", func() { x.AndNotInto(y, dst) }},
		{"NotInto", func() { x.NotInto(dst) }},
		{"ShiftInto", func() { x.ShiftInto(17, dst) }},
		{"MatchStarInto", func() { MatchStarInto(dst, x, y, tmpT, tmpS) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.SetBytes(n / 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bench.run()
			}
		})
	}
}

// BenchmarkShiftWords puts the shift kernels' cost per word in the tree, at
// the two sizes the window executor runs them (a default-grid window with its
// overlap margins, and eight of them) and at a bit-granular and a
// word-crossing distance in each direction.
func BenchmarkShiftWords(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{258, 2050} {
		src, dst := make([]uint64, n), make([]uint64, n)
		for i := range src {
			src[i] = rng.Uint64()
		}
		for _, k := range []int{3, 67, -3, -67} {
			b.Run(fmt.Sprintf("words=%d/k=%d", n, k), func(b *testing.B) {
				b.SetBytes(int64(n) * 8)
				for i := 0; i < b.N; i++ {
					ShiftWords(dst, src, k)
				}
			})
		}
	}
}

// BenchmarkNextSetBitSweep measures the match-extraction sweep: iterating
// every set bit via NextSetBit, the loop ScanReader's emit path runs per
// output stream.
func BenchmarkNextSetBitSweep(b *testing.B) {
	const n = 1 << 20
	for _, density := range []struct {
		name string
		d    float64
	}{
		{"sparse-0.1%", 0.001},
		{"1%", 0.01},
		{"dense-25%", 0.25},
	} {
		b.Run(density.name, func(b *testing.B) {
			s := randomStreamD(rand.New(rand.NewSource(11)), n, density.d)
			b.SetBytes(n / 8)
			b.ReportAllocs()
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				for p := s.NextSetBit(0); p >= 0; p = s.NextSetBit(p + 1) {
					total++
				}
			}
			_ = total
		})
	}
}

// BenchmarkPositions measures the presized materializing extraction.
func BenchmarkPositions(b *testing.B) {
	const n = 1 << 20
	s := randomStreamD(rand.New(rand.NewSource(13)), n, 0.01)
	b.SetBytes(n / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Positions()
	}
}
