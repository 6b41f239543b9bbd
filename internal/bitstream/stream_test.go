package bitstream

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFromBitsAndString(t *testing.T) {
	s := FromBits("..11.1")
	if got, want := s.String(), "..11.1"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if s.Len() != 6 {
		t.Fatalf("Len() = %d, want 6", s.Len())
	}
	if !s.Test(2) || !s.Test(3) || !s.Test(5) || s.Test(0) || s.Test(4) {
		t.Fatalf("unexpected bits in %v", s)
	}
}

func TestFromBitsIgnoresSeparators(t *testing.T) {
	s := FromBits("1.1 1_0\n1")
	if got := s.String(); got != "1.11.1" {
		t.Fatalf("got %q", got)
	}
}

func TestFromBitsPanicsOnGarbage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromBits("10x")
}

func TestSetClearTest(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 63, 64, 65, 127, 128, 129} {
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if got := s.Popcount(); got != 7 {
		t.Fatalf("Popcount = %d, want 7", got)
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if s.Test(-1) || s.Test(1000) {
		t.Fatal("out-of-range Test must be false")
	}
}

func TestPositions(t *testing.T) {
	s := FromPositions(200, 5, 64, 199, 0)
	got := s.Positions()
	want := []int{0, 5, 64, 199}
	if len(got) != len(want) {
		t.Fatalf("Positions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Positions = %v, want %v", got, want)
		}
	}
}

func TestBooleanOps(t *testing.T) {
	a := FromBits("1100")
	b := FromBits("1010")
	cases := []struct {
		name string
		got  *Stream
		want string
	}{
		{"And", a.And(b), "1..."},
		{"Or", a.Or(b), "111."},
		{"Xor", a.Xor(b), ".11."},
		{"AndNot", a.AndNot(b), ".1.."},
		{"Not", a.Not(), "..11"},
	}
	for _, c := range cases {
		if c.got.String() != c.want {
			t.Errorf("%s = %q, want %q", c.name, c.got, c.want)
		}
	}
}

func TestNotIsBounded(t *testing.T) {
	s := New(70) // two words, second partially used
	n := s.Not()
	if got := n.Popcount(); got != 70 {
		t.Fatalf("Not of empty 70-bit stream has %d ones, want 70", got)
	}
	if n.Test(70) || n.Test(127) {
		t.Fatal("Not leaked bits beyond Len")
	}
}

func TestAdvanceMatchesPaperConcatExample(t *testing.T) {
	// /cat/ over "bobcat": S_c=...1.., S_a=....1., S_t=.....1
	sc := FromBits("...1..")
	sa := FromBits("....1.")
	st := FromBits(".....1")
	scat := sc.Advance(1).And(sa).Advance(1).And(st)
	if got := scat.String(); got != ".....1" {
		t.Fatalf("S_cat = %q, want %q", got, ".....1")
	}
}

func TestAdvanceAcrossWordBoundary(t *testing.T) {
	s := FromPositions(200, 63)
	for _, k := range []int{1, 2, 64, 65, 100} {
		adv := s.Advance(k)
		if got := adv.Positions(); len(got) != 1 || got[0] != 63+k {
			t.Fatalf("Advance(%d) positions = %v, want [%d]", k, got, 63+k)
		}
	}
}

func TestAdvanceDropsBitsPastEnd(t *testing.T) {
	s := FromPositions(10, 8)
	if got := s.Advance(5).Popcount(); got != 0 {
		t.Fatalf("bit advanced past end survived, popcount=%d", got)
	}
}

func TestLookbackInvertsAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				s.Set(i)
			}
		}
		k := rng.Intn(80)
		round := s.Advance(k).Lookback(k)
		// Advance loses the top k bits; compare only the surviving prefix.
		for i := 0; i < n-k; i++ {
			if round.Test(i) != s.Test(i) {
				t.Fatalf("n=%d k=%d: bit %d mismatch", n, k, i)
			}
		}
		for i := max(0, n-k); i < n; i++ {
			if round.Test(i) {
				t.Fatalf("n=%d k=%d: bit %d should have been dropped", n, k, i)
			}
		}
	}
}

func TestShiftSigned(t *testing.T) {
	s := FromPositions(100, 50)
	if got := s.Shift(3).Positions()[0]; got != 53 {
		t.Fatalf("Shift(3) -> %d, want 53", got)
	}
	if got := s.Shift(-3).Positions()[0]; got != 47 {
		t.Fatalf("Shift(-3) -> %d, want 47", got)
	}
	if !s.Shift(0).Equal(s) {
		t.Fatal("Shift(0) must be identity")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromBits("101")
	b := a.Clone()
	b.Clear(0)
	if !a.Test(0) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestOnesAndAny(t *testing.T) {
	s := NewOnes(65)
	if got := s.Popcount(); got != 65 {
		t.Fatalf("NewOnes(65).Popcount = %d", got)
	}
	if !s.Any() {
		t.Fatal("Any on all-ones is false")
	}
	if New(65).Any() {
		t.Fatal("Any on all-zeros is true")
	}
}

func TestEqualDetectsLengthAndBits(t *testing.T) {
	if FromBits("10").Equal(FromBits("100")) {
		t.Fatal("streams of different length compared equal")
	}
	if FromBits("10").Equal(FromBits("11")) {
		t.Fatal("streams with different bits compared equal")
	}
	if !FromBits("1.1").Equal(FromBits("101")) {
		t.Fatal("identical streams compared unequal")
	}
}

// randomStream builds a reproducible random stream from quick's seed data.
func randomStream(rng *rand.Rand, n int) *Stream {
	s := New(n)
	for w := range s.words {
		s.words[w] = rng.Uint64()
	}
	s.maskTail()
	return s
}

func TestQuickDeMorgan(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%500 + 1
		a, b := randomStream(rng, n), randomStream(rng, n)
		lhs := a.And(b).Not()
		rhs := a.Not().Or(b.Not())
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickShiftDistributesOverAnd(t *testing.T) {
	// (a & b) >> k == (a >> k) & (b >> k): the algebraic identity that
	// underlies the Shift Rebalancing pass.
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64, nRaw, kRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%500 + 1
		k := int(kRaw) % 130
		a, b := randomStream(rng, n), randomStream(rng, n)
		return a.And(b).Advance(k).Equal(a.Advance(k).And(b.Advance(k)))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAdvanceComposes(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64, nRaw, k1Raw, k2Raw uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := int(nRaw)%300 + 1
		k1, k2 := int(k1Raw)%70, int(k2Raw)%70
		a := randomStream(rng, n)
		return a.Advance(k1).Advance(k2).Equal(a.Advance(k1 + k2))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPopcountMatchesPositions(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%700 + 1
		s := randomStream(rng, n)
		return s.Popcount() == len(s.Positions())
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWordLevelHelpersMatchStreamOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 64 * (1 + rng.Intn(8))
		s := randomStream(rng, n)
		k := rng.Intn(n + 10)
		dst := make([]uint64, len(s.words))

		AdvanceWords(dst, s.words, k)
		if !FromWords(dst, n).Equal(s.Advance(k)) {
			t.Fatalf("AdvanceWords(k=%d) diverges from Stream.Advance", k)
		}
		dst = make([]uint64, len(s.words))
		LookbackWords(dst, s.words, k)
		if !FromWords(dst, n).Equal(s.Lookback(k)) {
			t.Fatalf("LookbackWords(k=%d) diverges from Stream.Lookback", k)
		}
		dst = make([]uint64, len(s.words))
		ShiftWords(dst, s.words, -k)
		if !FromWords(dst, n).Equal(s.Shift(-k)) {
			t.Fatalf("ShiftWords(-k) diverges from Stream.Shift(-%d)", k)
		}
	}
}

func TestFromWordsPanicsWhenTooShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromWords(make([]uint64, 1), 65)
}

// TestShiftWordsTable checks AdvanceWords and LookbackWords bit for bit
// against a one-bit-at-a-time reference at every boundary the kernels
// special-case: no shift, within a word, exactly whole words, one past, a
// shift of the full length and beyond it; over lengths that straddle nothing,
// one word, a register tile and a window. Each case also runs with dst
// aliasing src, which the window executor relies on, and checks that src is
// otherwise left alone.
func TestShiftWordsTable(t *testing.T) {
	rng := rand.New(rand.NewSource(20260930))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 33, 258} {
		src := make([]uint64, n)
		for i := range src {
			src[i] = rng.Uint64()
		}
		bit := func(i int) bool { return i >= 0 && i < n*64 && src[i/64]&(1<<(uint(i)%64)) != 0 }
		ks := []int{0, 1, 63, 64, 65, 127, 128, 64 * n, 64*n + 1}
		if n > 1 {
			ks = append(ks, 64*(n-1), 64*(n-1)+1, 64*n-1)
		}
		for _, k := range ks {
			for _, dir := range []struct {
				name  string
				shift func(dst, src []uint64, k int)
				from  int // out[i] = in[i+from*k]
			}{
				{"AdvanceWords", AdvanceWords, -1},
				{"LookbackWords", LookbackWords, +1},
			} {
				want := make([]uint64, n)
				for i := 0; i < n*64; i++ {
					if bit(i + dir.from*k) {
						want[i/64] |= 1 << (uint(i) % 64)
					}
				}
				// A dirty destination: every word must be written.
				dst := make([]uint64, n)
				for i := range dst {
					dst[i] = ^uint64(0)
				}
				keep := slices.Clone(src)
				dir.shift(dst, src, k)
				if !slices.Equal(dst, want) {
					t.Fatalf("%s n=%d k=%d diverges from the bitwise reference", dir.name, n, k)
				}
				if !slices.Equal(src, keep) {
					t.Fatalf("%s n=%d k=%d wrote its source", dir.name, n, k)
				}
				inPlace := slices.Clone(src)
				dir.shift(inPlace, inPlace, k)
				if !slices.Equal(inPlace, want) {
					t.Fatalf("%s n=%d k=%d diverges when dst aliases src", dir.name, n, k)
				}
			}
		}
	}
}

// TestShiftWordsRejectsLengthMismatch pins the chosen behaviour for operands
// of different lengths: a panic, never a partially written dst.
func TestShiftWordsRejectsLengthMismatch(t *testing.T) {
	for _, tc := range []struct{ dst, src int }{{3, 2}, {2, 3}, {1, 0}} {
		for name, shift := range map[string]func(dst, src []uint64, k int){
			"AdvanceWords": AdvanceWords, "LookbackWords": LookbackWords,
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(dst[%d], src[%d]) did not panic", name, tc.dst, tc.src)
					}
				}()
				shift(make([]uint64, tc.dst), make([]uint64, tc.src), 1)
			}()
		}
	}
}
