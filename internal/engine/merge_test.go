package engine

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bitgen/internal/arena"
	"bitgen/internal/bitstream"
)

// mergeFixture compiles n literal patterns ("p0000"…, so pattern i has rank
// i) and executes them over nbits bytes none of them matches: every output is
// parked with no words, exactly as a matchless scan leaves it. park then
// stands the words of a directly built stream in for one of them.
func mergeFixture(tb testing.TB, n, nbits int) *ScanSession {
	tb.Helper()
	regexes := make([]string, n)
	for i := range regexes {
		regexes[i] = fmt.Sprintf("p%04d", i)
	}
	cfg := BitGenDefault()
	cfg.Grid = smallGrid
	e, err := Compile(mustRegexes(tb, regexes...), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ss, err := e.NewScanSession(nbits, &arena.Arena{}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(ss.Close)
	if err := ss.execute(context.Background(), bytes.Repeat([]byte{'x'}, nbits), false); err != nil {
		tb.Fatal(err)
	}
	for _, outs := range ss.outs {
		for _, words := range outs {
			if len(words) > 0 {
				tb.Fatal("the fixture's input committed a word to an output")
			}
		}
	}
	return ss
}

// park makes s's non-zero words the parked output of the pattern of the
// given rank.
func park(ss *ScanSession, rank int, s *bitstream.Stream) {
	for gi, ranks := range ss.e.outRanks {
		if oi := slices.Index(ranks, int32(rank)); oi >= 0 {
			ss.outs[gi][oi] = bitstream.Compact(nil).AppendWords(s.Words(), 0)
			return
		}
	}
	panic(fmt.Sprintf("no output of rank %d", rank))
}

// naiveMerge is the collector's reference: every output's words expanded
// back to a stream, its Positions() cut at newFrom, sorted by (End, Rank).
func naiveMerge(ss *ScanSession, base, newFrom int64) []ScanMatch {
	var want []ScanMatch
	for gi, outs := range ss.outs {
		for oi, words := range outs {
			for _, p := range words.Stream(ss.basis.N).Positions() {
				if end := base + int64(p); end >= newFrom {
					want = append(want, ScanMatch{End: end, Rank: ss.e.outRanks[gi][oi]})
				}
			}
		}
	}
	slices.SortFunc(want, func(a, b ScanMatch) int {
		return cmp.Or(cmp.Compare(a.End, b.End), cmp.Compare(a.Rank, b.Rank))
	})
	return want
}

func every(nbits, step int) []int {
	var out []int
	for p := 0; p < nbits; p += step {
		out = append(out, p)
	}
	return out
}

// TestMergeMatchesAgainstNaive builds output streams directly and compares
// the word-synchronous collector with the reference, match sequence for match
// sequence, at every kind of newFrom cut and a base past 32 bits.
func TestMergeMatchesAgainstNaive(t *testing.T) {
	const patterns = 8
	rng := rand.New(rand.NewSource(29))
	random := func(nbits int, density float64) []int {
		var out []int
		for p := 0; p < nbits; p++ {
			if rng.Float64() < density {
				out = append(out, p)
			}
		}
		return out
	}
	cases := []struct {
		name  string
		nbits int
		outs  map[int][]int // rank -> set bits; every other output stays the shared zero
	}{
		{"dense: every bit, a partial last word", 200, map[int][]int{3: every(200, 1)}},
		{"sparse: one bit per 4 KiB", 64 << 10, map[int][]int{5: every(64<<10, 4096)}},
		{"an all-ones word between two others", 256, map[int][]int{0: every(128, 1)[64:], 6: {3, 200}}},
		{"bits 63 and 64 straddle a word", 130, map[int][]int{2: {63, 64}, 4: {64}, 1: {63, 129}}},
		{"two and three outputs hit one position", 300, map[int][]int{7: {10, 70, 299}, 0: {10, 70}, 3: {70, 71}}},
		{"every output live, ranks interleaved across groups", 1000, map[int][]int{
			0: random(1000, 0.1), 1: random(1000, 0.1), 2: random(1000, 0.5), 3: random(1000, 0.02),
			4: random(1000, 0.1), 5: random(1000, 0.9), 6: random(1000, 0.1), 7: random(1000, 0.01)}},
		{"one live output with no set bit", 100, map[int][]int{4: nil}},
		{"nothing live", 100, nil},
		{"a single bit, the last", 129, map[int][]int{1: {128}}},
		{"words only in the carried overlap", 640, map[int][]int{2: {5, 63}, 6: {64, 127}, 3: {300}}},
		{"the only word the last, partial one", 200, map[int][]int{5: {192, 199}, 0: {199}}},
		{"two words a tile apart", 64 * 200, map[int][]int{4: {64*64 - 1, 64 * 64}, 7: {64*64 - 1, 64*128 + 3}}},
	}
	ss := mergeFixture(t, patterns, 64)
	interleaved := false
	for _, ranks := range ss.e.outRanks {
		interleaved = interleaved || (len(ranks) > 1 && ranks[len(ranks)-1]-ranks[0] >= int32(len(ranks)))
	}
	if !interleaved {
		t.Fatalf("rank tables %v: no group's ranks interleave with another's", ss.e.outRanks)
	}
	for _, c := range cases {
		ss := mergeFixture(t, patterns, c.nbits)
		for rank, pos := range c.outs {
			park(ss, rank, bitstream.FromPositions(c.nbits, pos...))
		}
		var dst []ScanMatch
		for _, base := range []int64{0, 1<<33 + 5} {
			// newFrom: before the chunk, at its start, mid-word, on a word
			// boundary, on the last bit, one past it and far past it.
			for _, from := range []int64{-7, 0, 1, 37, 63, 64, 65, 128, int64(c.nbits) - 1, int64(c.nbits), int64(c.nbits) + 500} {
				want := naiveMerge(ss, base, base+from)
				dst = ss.mergeMatches(base, base+from, dst[:0])
				if len(dst) != len(want) || (len(want) > 0 && !reflect.DeepEqual(dst, want)) {
					t.Errorf("%s, base %d, newFrom base%+d: merged %d matches, want %d\n got %v\nwant %v",
						c.name, base, from, len(dst), len(want), dst, want)
				}
			}
		}
		// Run sizes dst from the match count plus the collector's one spare
		// slot: merging into exactly that must not reallocate.
		if want := naiveMerge(ss, 0, 0); len(want) > 0 {
			sized := make([]ScanMatch, 0, len(want)+1)
			if got := ss.mergeMatches(0, 0, sized); &got[0] != &sized[:1][0] {
				t.Errorf("%s: %d matches outgrew a dst of capacity %d", c.name, len(want), cap(sized))
			}
		}
		// Appending keeps what dst already held.
		kept := ScanMatch{End: -1, Rank: 99}
		if got := ss.mergeMatches(0, 0, []ScanMatch{kept}); got[0] != kept || len(got) != 1+len(naiveMerge(ss, 0, 0)) {
			t.Errorf("%s: merging into a non-empty dst lost or miscounted: %d records, first %v", c.name, len(got), got[0])
		}
	}
}

// BenchmarkMergeMatches prices the collector alone on directly built
// streams of 256 KiB chunks: dense4 is stream_light's shape (four outputs, a
// match every 16 B), sparse168 stream_sigs' (168 outputs, half of them live
// with a match or two in the chunk each: nearly all of it is skipping zero
// words), and live1000 guards the many-live-outputs case — a thousand live
// outputs with a match per 64 KiB each, where the cost must stay O(live words
// + matches), not O(live) per match.
func BenchmarkMergeMatches(b *testing.B) {
	const nbits = 256 << 10
	for _, c := range []struct {
		name              string
		outputs, liveStep int
		perMatch          int // bits between two matches of one live output
	}{
		{"dense4", 4, 1, 64},
		{"sparse168", 168, 2, 128 << 10},
		{"live1000", 1000, 1, 64 << 10},
	} {
		b.Run(c.name, func(b *testing.B) {
			ss := mergeFixture(b, c.outputs, nbits)
			rng := rand.New(rand.NewSource(31))
			for rank := 0; rank < c.outputs; rank += c.liveStep {
				var pos []int
				for p := rng.Intn(c.perMatch); p < nbits; p += 1 + rng.Intn(2*c.perMatch-1) {
					pos = append(pos, p)
				}
				park(ss, rank, bitstream.FromPositions(nbits, pos...))
			}
			dst := ss.mergeMatches(0, 0, nil)
			if !reflect.DeepEqual(dst, naiveMerge(ss, 0, 0)) {
				b.Fatal("the collector disagrees with the reference")
			}
			b.SetBytes(nbits)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = ss.mergeMatches(0, 0, dst[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst)), "ns/match")
		})
	}
}
