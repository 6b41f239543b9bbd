package bitgen

import (
	"bytes"
	"context"
	"errors"
	"reflect"
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

// TestNullableEndOfInputAcrossBackends pins the EOF empty-match fix to all
// three backends: the bitstream kernel, the hybrid engine and the NFA
// reference must each report the end-of-input position.
func TestNullableEndOfInputAcrossBackends(t *testing.T) {
	patterns := []string{"a{0}", "ab", "c*"}
	input := []byte("cab")
	var ref []Match
	for _, backend := range []string{BackendNFA, BackendHybrid, BackendBitstream} {
		e, err := Compile(patterns, &Options{Resilience: &ResilienceOptions{ForceBackend: backend}})
		if err != nil {
			t.Fatalf("compile for %s: %v", backend, err)
		}
		res, err := e.Run(input)
		if err != nil {
			t.Fatalf("%s run: %v", backend, err)
		}
		// Every pattern is nullable except "ab": both nullable patterns
		// must include End == len(input).
		for _, p := range []string{"a{0}", "c*"} {
			found := false
			for _, m := range res.Matches {
				if m.Pattern == p && m.End == len(input) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: %q missing end-of-input match at %d: %v",
					backend, p, len(input), res.Matches)
			}
		}
		if ref == nil {
			ref = res.Matches
		} else if !reflect.DeepEqual(res.Matches, ref) {
			t.Errorf("%s diverges from reference:\n got  %v\n want %v",
				backend, res.Matches, ref)
		}
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

// TestDuplicatePatternsAcrossBackends pins duplicate fan-out to every
// backend.
func TestDuplicatePatternsAcrossBackends(t *testing.T) {
	patterns := []string{"abc", "abc", "z"}
	input := []byte("zabcz")
	var ref *Result
	for _, backend := range []string{BackendNFA, BackendHybrid, BackendBitstream} {
		e, err := Compile(patterns, &Options{Resilience: &ResilienceOptions{ForceBackend: backend}})
		if err != nil {
			t.Fatalf("compile for %s: %v", backend, err)
		}
		res, err := e.Run(input)
		if err != nil {
			t.Fatalf("%s run: %v", backend, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Matches, ref.Matches) {
			t.Errorf("%s Matches diverge:\n got  %v\n want %v", backend, res.Matches, ref.Matches)
		}
		if !reflect.DeepEqual(res.IndexCounts, ref.IndexCounts) {
			t.Errorf("%s IndexCounts diverge: %v vs %v", backend, res.IndexCounts, ref.IndexCounts)
		}
	}
	if !reflect.DeepEqual(ref.IndexCounts, []int{1, 1, 2}) {
		t.Errorf("IndexCounts = %v, want [1 1 2]", ref.IndexCounts)
	}
}

// TestScanReaderDuplicatePatterns verifies streaming on every backend fans
// duplicates out per index in sorted order.
func TestScanReaderDuplicatePatterns(t *testing.T) {
	input := strings.Repeat("xxabcxx", 3)
	want := []Match{
		{Pattern: "abc", Index: 0, End: 4},
		{Pattern: "abc", Index: 1, End: 4},
		{Pattern: "abc", Index: 0, End: 11},
		{Pattern: "abc", Index: 1, End: 11},
		{Pattern: "abc", Index: 0, End: 18},
		{Pattern: "abc", Index: 1, End: 18},
	}
	for name, opts := range map[string]*Options{
		"pipelined": nil,
		"bitstream": {Resilience: &ResilienceOptions{}},
		"hybrid":    {Resilience: &ResilienceOptions{ForceBackend: BackendHybrid}},
		"nfa":       {Resilience: &ResilienceOptions{ForceBackend: BackendNFA}},
	} {
		e := MustCompile([]string{"abc", "abc"}, opts)
		var got []Match
		err := e.ScanReader(strings.NewReader(input), 8, func(m Match) { got = append(got, m) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: matches = %v, want %v", name, got, want)
		}
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

// TestRunMultiEdgeCases covers previously untested inputs: an empty input
// slice, empty member inputs, and a nullable pattern over an empty stream.
func TestRunMultiEdgeCases(t *testing.T) {
	e := MustCompile([]string{"ab"}, nil)
	mr, err := e.RunMulti(nil)
	if err != nil {
		t.Fatalf("RunMulti(nil): %v", err)
	}
	if len(mr.PerStream) != 0 {
		t.Fatalf("RunMulti(nil) PerStream = %d, want 0", len(mr.PerStream))
	}

	mr, err = e.RunMulti([][]byte{{}, []byte("ab")})
	if err != nil {
		t.Fatalf("RunMulti with empty member: %v", err)
	}
	if len(mr.PerStream) != 2 {
		t.Fatalf("PerStream = %d, want 2", len(mr.PerStream))
	}
	if len(mr.PerStream[0].Matches) != 0 {
		t.Errorf("empty input matched: %v", mr.PerStream[0].Matches)
	}
	if got := endsOf(mr.PerStream[1].Matches, 0); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("second stream ends = %v, want [1]", got)
	}

	// A nullable pattern matches the empty input once, at offset 0.
	en := MustCompile([]string{"a*"}, nil)
	mr, err = en.RunMulti([][]byte{{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := endsOf(mr.PerStream[0].Matches, 0); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("a* on empty input ends = %v, want [0]", got)
	}
}

// TestRunCollectsLikeTheReference drives one-shot Run through the engine's
// shared match collector on the inputs that stress it — duplicates next to
// a nullable pattern, a match-dense input with several patterns ending at
// the same offset (the rank tie-break), and an input that pushes a carry
// chain onto the overlap fallback — and compares each with the NFA
// reference in (End, Pattern, Index) order. CountOnly must agree with the
// per-pattern match counts, and a result must survive the next Run: its
// Matches never alias the pooled session's buffers.
func TestRunCollectsLikeTheReference(t *testing.T) {
	cases := []struct {
		name     string
		patterns []string
		input    string
		matches  int // at least this many
		threads  int
		fallback bool // the bitstream engine must take an overlap fallback
	}{
		{name: "duplicates+nullable", patterns: []string{"abc", "a?", "abc"}, input: "xabcabca", matches: 4 + 9, threads: 32},
		{name: "dense", patterns: []string{"ab", "b", "[ab]", "b"}, input: strings.Repeat("ab", 15_000), matches: 50_001, threads: 32},
		// A 128-bit block: the b* carry chain outgrows the overlap cap.
		{name: "fallback", patterns: []string{"ab*c", "bc", "b{3}"}, input: "a" + strings.Repeat("b", 2000) + "c abc abbbc",
			matches: 3, threads: 4, fallback: true},
	}
	for _, c := range cases {
		input := []byte(c.input)
		eng := MustCompile(c.patterns, &Options{CTAs: 2, Threads: c.threads})
		ref := MustCompile(c.patterns, &Options{Resilience: &ResilienceOptions{ForceBackend: BackendNFA}})
		want, err := ref.Run(input)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if len(want.Matches) < c.matches {
			t.Fatalf("%s: reference found %d matches, the case needs %d", c.name, len(want.Matches), c.matches)
		}
		if c.fallback {
			inner, err := eng.inner.RunCounts(context.Background(), input)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if inner.Fallbacks == 0 {
				t.Fatalf("%s: input did not force an overlap fallback", c.name)
			}
		}
		first, err := eng.Run(input)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(first.Matches, want.Matches) {
			t.Fatalf("%s: Run diverges from the NFA reference at match %d of %d (reference has %d)",
				c.name, firstDiff(first.Matches, want.Matches), len(first.Matches), len(want.Matches))
		}
		kept := append([]Match(nil), first.Matches...)
		// A different input through the same pooled session.
		if _, err := eng.Run(bytes.Repeat([]byte("cab"), len(input)/3+1)); err != nil {
			t.Fatalf("%s: second run: %v", c.name, err)
		}
		if !reflect.DeepEqual(first.Matches, kept) {
			t.Fatalf("%s: the next Run rewrote an earlier result's Matches", c.name)
		}
		counts, err := eng.CountOnly(input)
		if err != nil {
			t.Fatalf("%s: CountOnly: %v", c.name, err)
		}
		perPattern := map[string]int{}
		for _, m := range first.Matches {
			perPattern[m.Pattern]++
		}
		for _, p := range c.patterns {
			if counts[p] != perPattern[p] {
				t.Errorf("%s: CountOnly[%q] = %d, Run lists %d", c.name, p, counts[p], perPattern[p])
			}
		}
	}
}
