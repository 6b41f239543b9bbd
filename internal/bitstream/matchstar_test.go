package bitstream

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddBasics(t *testing.T) {
	// 1 + 1 = 2 in little-endian bit order.
	a := FromBits("1")
	b := FromBits("1")
	if got := a.Add(b).String(); got != "." {
		// Single-bit stream: the carry out of position 0 is dropped.
		t.Fatalf("1+1 in 1-bit stream = %q, want %q", got, ".")
	}
	a2 := FromPositions(4, 0)
	b2 := FromPositions(4, 0)
	if got := a2.Add(b2).Positions(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("1+1 = %v, want [1]", got)
	}
}

func TestAddCarryAcrossWordBoundary(t *testing.T) {
	// All-ones through bit 63, plus 1: carry ripples into word 1.
	a := New(130)
	for i := 0; i <= 63; i++ {
		a.Set(i)
	}
	one := FromPositions(130, 0)
	sum := a.Add(one)
	if got := sum.Positions(); len(got) != 1 || got[0] != 64 {
		t.Fatalf("carry across word = %v, want [64]", got)
	}
}

func TestAddLongCarryChain(t *testing.T) {
	// 200 consecutive ones + 1 = single bit at 200.
	a := New(256)
	for i := 0; i < 200; i++ {
		a.Set(i)
	}
	sum := a.Add(FromPositions(256, 0))
	if got := sum.Positions(); len(got) != 1 || got[0] != 200 {
		t.Fatalf("long carry = %v", got)
	}
}

func TestQuickAddCommutes(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%500 + 1
		a, b := randomStream(rng, n), randomStream(rng, n)
		return a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAddAssociates(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%300 + 1
		a, b, c := randomStream(rng, n), randomStream(rng, n), randomStream(rng, n)
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// referenceMatchStar computes the closure by quadratic scanning.
func referenceMatchStar(m, c *Stream) *Stream {
	n := m.Len()
	out := New(n)
	for _, start := range m.Positions() {
		out.Set(start)
		for p := start + 1; p < n && c.Test(p); p++ {
			out.Set(p)
		}
	}
	return out
}

func TestMatchStarAgainstReference(t *testing.T) {
	cases := []struct{ m, c string }{
		{"1.....", ".1111."},
		{"1..1..", "111111"},
		{"......", "111111"},
		{"111111", "......"},
		{"1.1.1.", ".1.1.1"},
		{".....1", "......"},
		{"1.....", "......"},
	}
	for _, tc := range cases {
		m, c := FromBits(tc.m), FromBits(tc.c)
		got := MatchStar(m, c)
		want := referenceMatchStar(m, c)
		if !got.Equal(want) {
			t.Errorf("MatchStar(%s, %s) = %s, want %s", tc.m, tc.c, got, want)
		}
	}
}

func TestQuickMatchStarAgainstReference(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%400 + 1
		m := New(n)
		c := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(6) == 0 {
				m.Set(i)
			}
			if rng.Intn(2) == 0 {
				c.Set(i)
			}
		}
		return MatchStar(m, c).Equal(referenceMatchStar(m, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMatchStarMonotoneInMarkers(t *testing.T) {
	// More markers never yield fewer matches: the property the kernel's
	// saturation probe relies on.
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%300 + 1
		m1 := New(n)
		extra := New(n)
		c := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(8) == 0 {
				m1.Set(i)
			}
			if rng.Intn(8) == 0 {
				extra.Set(i)
			}
			if rng.Intn(2) == 0 {
				c.Set(i)
			}
		}
		m2 := m1.Or(extra)
		r1 := MatchStar(m1, c)
		r2 := MatchStar(m2, c)
		// r1 ⊆ r2
		return r1.AndNot(r2).Popcount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchStarZeroPreservingInMarkers(t *testing.T) {
	c := FromBits("110110111")
	if MatchStar(New(9), c).Any() {
		t.Fatal("MatchStar with no markers produced matches")
	}
}

func TestNextSetBit(t *testing.T) {
	s := FromPositions(200, 3, 64, 65, 199)
	var got []int
	for p := s.NextSetBit(0); p >= 0; p = s.NextSetBit(p + 1) {
		got = append(got, p)
	}
	want := []int{3, 64, 65, 199}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
	if s.NextSetBit(200) != -1 || s.NextSetBit(-5) != 3 {
		t.Fatal("boundary behavior wrong")
	}
	if New(10).NextSetBit(0) != -1 {
		t.Fatal("empty stream returned a bit")
	}
}

func TestQuickNextSetBitMatchesPositions(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%500 + 1
		s := randomStream(rng, n)
		var it []int
		for p := s.NextSetBit(0); p >= 0; p = s.NextSetBit(p + 1) {
			it = append(it, p)
		}
		want := s.Positions()
		if len(it) != len(want) {
			return false
		}
		for i := range want {
			if it[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
