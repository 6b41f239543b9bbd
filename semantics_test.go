package bitgen

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// endsOf projects the end positions of one pattern index out of a match
// list.
func endsOf(matches []Match, index int) []int {
	var ends []int
	for _, m := range matches {
		if m.Index == index {
			ends = append(ends, m.End)
		}
	}
	return ends
}

// TestNullableEndOfInputMatch is the regression test for the dropped
// end-of-input empty match: a pattern that matches the empty string matches
// at every offset 0..len(input), including the one past the last byte —
// exactly the offsets Go's regexp reports. The seed engine reported only
// len(input) positions (ends 0..len-1).
func TestNullableEndOfInputMatch(t *testing.T) {
	cases := []struct {
		pattern, input string
		ends           []int
	}{
		{"a{0}", "aaa", []int{0, 1, 2, 3}},
		{"a?", "xyz", []int{0, 1, 2, 3}},
		{"a*", "aaa", []int{0, 1, 2, 3}},
		{"(ab)*", "abab", []int{0, 1, 2, 3, 4}},
		{"a*", "", []int{0}},
		{"a{0,2}", "ba", []int{0, 1, 2}},
	}
	for _, c := range cases {
		e := MustCompile([]string{c.pattern}, nil)
		res, err := e.Run([]byte(c.input))
		if err != nil {
			t.Fatalf("%q on %q: %v", c.pattern, c.input, err)
		}
		if got := endsOf(res.Matches, 0); !reflect.DeepEqual(got, c.ends) {
			t.Errorf("%q on %q: ends = %v, want %v", c.pattern, c.input, got, c.ends)
		}
		if res.Counts[c.pattern] != len(c.ends) {
			t.Errorf("%q on %q: Counts = %d, want %d",
				c.pattern, c.input, res.Counts[c.pattern], len(c.ends))
		}
		counts, err := e.CountOnly([]byte(c.input))
		if err != nil {
			t.Fatalf("%q CountOnly: %v", c.pattern, err)
		}
		if counts[c.pattern] != len(c.ends) {
			t.Errorf("%q on %q: CountOnly = %d, want %d",
				c.pattern, c.input, counts[c.pattern], len(c.ends))
		}
	}
}

// TestNullableEndOfInputAcrossBackends pins the end-of-input empty match to
// every backend, and ScanReader's refusal of the nullable set to all alike.
func TestNullableEndOfInputAcrossBackends(t *testing.T) {
	patterns, input := []string{"a{0}", "ab", "c*"}, []byte("cab")
	if n := len(slices.DeleteFunc(reference(t, patterns, input), func(m Match) bool { return m.End != len(input) })); n != 2 {
		t.Fatalf("the reference lists %d end-of-input matches, want one per nullable pattern", n)
	}
	c := &conformance{t: t}
	c.row(corpus{patterns: patterns, input: input, wide: true})
	if c.nullable == 0 || c.refused == 0 {
		t.Fatalf("%d nullable sets, %d refusals: the corpus must reach both", c.nullable, c.refused)
	}
}

// TestDuplicatePatternsReportPerIndex is the regression test for silent
// duplicate collapse: Compile([]string{"abc","abc"}) must report one Match
// per pattern entry, distinguished by Index, with per-string Counts summed
// and per-index IndexCounts separate. The seed engine collapsed duplicates
// into a single entry (Counts == map[abc:1]).
func TestDuplicatePatternsReportPerIndex(t *testing.T) {
	e := MustCompile([]string{"abc", "abc"}, nil)
	if got := e.Patterns(); !reflect.DeepEqual(got, []string{"abc", "abc"}) {
		t.Fatalf("Patterns() = %v, want both entries", got)
	}
	res, err := e.Run([]byte("zabcz"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Match{{Pattern: "abc", Index: 0, End: 3}, {Pattern: "abc", Index: 1, End: 3}}
	if !reflect.DeepEqual(res.Matches, want) {
		t.Errorf("Matches = %v, want %v", res.Matches, want)
	}
	if res.Counts["abc"] != 2 {
		t.Errorf("Counts[abc] = %d, want 2 (summed across duplicates)", res.Counts["abc"])
	}
	if !reflect.DeepEqual(res.IndexCounts, []int{1, 1}) {
		t.Errorf("IndexCounts = %v, want [1 1]", res.IndexCounts)
	}
	counts, err := e.CountOnly([]byte("zabcz"))
	if err != nil {
		t.Fatal(err)
	}
	if counts["abc"] != 2 {
		t.Errorf("CountOnly[abc] = %d, want 2", counts["abc"])
	}
}

// TestDuplicatePatternsMixedSet checks fan-out ordering with duplicates
// interleaved among distinct patterns.
func TestDuplicatePatternsMixedSet(t *testing.T) {
	e := MustCompile([]string{"ab", "cd", "ab"}, nil)
	res, err := e.Run([]byte("abcd"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Match{
		{Pattern: "ab", Index: 0, End: 1},
		{Pattern: "ab", Index: 2, End: 1},
		{Pattern: "cd", Index: 1, End: 3},
	}
	if !reflect.DeepEqual(res.Matches, want) {
		t.Errorf("Matches = %v, want %v", res.Matches, want)
	}
	if !reflect.DeepEqual(res.IndexCounts, []int{1, 1, 1}) {
		t.Errorf("IndexCounts = %v", res.IndexCounts)
	}
}

// TestDuplicatePatternsAcrossBackends pins duplicate fan-out to every backend.
func TestDuplicatePatternsAcrossBackends(t *testing.T) {
	(&conformance{t: t}).row(corpus{patterns: []string{"abc", "abc", "z"}, input: []byte("zabcz"), wide: true})
}

// TestScanReaderDuplicatePatterns streams a duplicated pattern on every
// backend, in 8-byte chunks among others: each match fans out per index.
func TestScanReaderDuplicatePatterns(t *testing.T) {
	(&conformance{t: t}).row(corpus{patterns: []string{"abc", "abc"}, input: []byte(strings.Repeat("xxabcxx", 3)), wide: true, extra: []int{5}})
}

// TestRunCollectsLikeTheReference drives the engine's shared match collector
// on the inputs that stress it: duplicates next to a nullable pattern, a
// match-dense input with several patterns ending at the same offset (the
// rank tie-break), and a carry chain that takes the overlap fallback on
// tinyGeometry. Every cell also checks that no later call rewrote an earlier
// result's Matches.
func TestRunCollectsLikeTheReference(t *testing.T) {
	c := &conformance{t: t}
	c.row(corpus{patterns: []string{"abc", "a?", "abc"}, input: []byte("xabcabca"), wide: true})
	c.row(corpus{patterns: []string{"ab", "b", "[ab]", "b"}, input: bytes.Repeat([]byte("ab"), 2048), wide: true})
	c.row(corpus{patterns: []string{"ab*c", "bc", "b{3}"}, input: []byte("a" + strings.Repeat("b", 2000) + "c abc abbbc"), wide: true})
	if c.fallback == 0 {
		t.Fatal("the carry chain no longer takes the overlap fallback")
	}
}

// TestScanReaderRefusesNullablePatterns: streaming an empty-matchable
// pattern would emit an unbounded firehose of empty matches, so ScanReader
// refuses with a typed error naming the offending patterns.
func TestScanReaderRefusesNullablePatterns(t *testing.T) {
	e := MustCompile([]string{"a?", "bc"}, nil)
	err := e.ScanReader(strings.NewReader("xxx"), 1024, func(Match) {
		t.Fatal("emit called on refused scan")
	})
	var ue *UnsupportedError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UnsupportedError", err)
	}
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
	if len(ue.Patterns) != 1 || ue.Patterns[0] != "a?" {
		t.Fatalf("refusal names %v, want [a?]", ue.Patterns)
	}
}

// TestRunEmptyInput: an empty input matches nothing for a pattern that
// needs a byte, and a nullable pattern matches it once, at offset 0.
func TestRunEmptyInput(t *testing.T) {
	res, err := MustCompile([]string{"ab"}, nil).Run(nil)
	if err != nil {
		t.Fatalf("Run(nil): %v", err)
	}
	if len(res.Matches) != 0 {
		t.Errorf("ab on empty input matched: %v", res.Matches)
	}
	res, err = MustCompile([]string{"a*"}, nil).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := endsOf(res.Matches, 0); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("a* on empty input ends = %v, want [0]", got)
	}
}
