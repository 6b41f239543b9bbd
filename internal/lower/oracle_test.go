package lower

import (
	"math/rand"
	"regexp"
	"testing"

	"bitgen/internal/bitstream"
	"bitgen/internal/ir"
	"bitgen/internal/rx"
	"bitgen/internal/transpose"
)

// oracleEnds computes, byte-at-a-time via Go's regexp compiled from the
// Go-syntax pattern goPattern, the all-match end positions: bit j set iff
// some i <= j+1 exists with the pattern matching input[i:j+1] exactly
// (i == j+1 is the empty match ending at j). Nullable patterns — those Go's
// regexp matches on "" — own one extra position, the empty match at
// end-of-input, so their oracle stream is len(input)+1 bits with the last
// bit set.
func oracleEnds(t *testing.T, goPattern string, input []byte) *bitstream.Stream {
	t.Helper()
	re, err := regexp.Compile("^(?:" + goPattern + ")$")
	if err != nil {
		t.Fatalf("oracle compile of %q: %v", goPattern, err)
	}
	n := len(input)
	size := n
	if re.MatchString("") {
		size = n + 1
	}
	out := bitstream.New(size)
	for j := 0; j < n; j++ {
		for i := 0; i <= j+1; i++ {
			if re.Match(input[i : j+1]) {
				out.Set(j)
				break
			}
		}
	}
	if size > n {
		out.Set(n)
	}
	return out
}

// lowerAndRun lowers the AST and interprets the program over input.
func lowerAndRun(t *testing.T, ast rx.Node, input []byte) *bitstream.Stream {
	t.Helper()
	p, err := Group([]Regex{{Name: "re", AST: ast}}, Options{})
	if err != nil {
		t.Fatalf("Group: %v", err)
	}
	res, err := ir.Interpret(p, transpose.Transpose(input), ir.InterpOptions{})
	if err != nil {
		t.Fatalf("Interpret: %v\nprogram:\n%s", err, p)
	}
	return res.Outputs["re"]
}

func checkAgainstOracle(t *testing.T, pattern string, input string) {
	t.Helper()
	ast := rx.MustParse(pattern)
	got := lowerAndRun(t, ast, []byte(input))
	want := oracleEnds(t, pattern, []byte(input))
	if !got.Equal(want) {
		t.Errorf("pattern %q input %q:\n got  %s\n want %s",
			pattern, input, got, want)
	}
}

func TestLowerAgainstOracleFixedCases(t *testing.T) {
	cases := []struct{ pattern, input string }{
		{"cat", "bobcat"},
		{"cat", "catcatcat"},
		{"a(bc)*d", "ad abcd abcbcbcd abd"},
		{"(abc)|d", "abcdabce"},
		{"a|b|c", "xaybzc"},
		{"ab*c", "ac abc abbbbc abxc"},
		{"a+", "aaabaaa"},
		{"a?b", "b ab xb"},
		{"a{2,4}", "a aa aaa aaaa aaaaa aaaaaa"},
		{"a{3}", "aaaa"},
		{"a{2,}", "aaaaa baa"},
		{"(ab)+", "ababab ab ba"},
		{"[a-c]x", "ax bx cx dx"},
		{"[^a]b", "ab bb cb"},
		{".a", "xa\na a"},
		{"a.c", "abc a\nc axc"},
		{"(a|b)(c|d)", "ac bd ad bc xx"},
		{"x(y|z)?w", "xw xyw xzw xvw"},
		{"(a|ab)(c|bc)", "abc"},
		{"a*", "aaa"},
		{"(a*)(b*)", "aabb"},
		{"((a|b)*c){2}", "abcac bcbc cc"},
		{"\\d+:\\d+", "12:34 5:6 :7"},
		{"[a-z]+@[a-z]+", "joe@example x@y @z"},
		{"(0|1)*1", "0101101"},
		{"(aa|aaa)+", "aaaaaaa"},
		{"z{0,2}q", "q zq zzq zzzq"},
	}
	for _, c := range cases {
		checkAgainstOracle(t, c.pattern, c.input)
	}
}

func TestLowerListing3Shape(t *testing.T) {
	p := MustSingle("re", "a(bc)*d")
	st := ir.CollectStats(p)
	if st.While != 1 {
		t.Errorf("a(bc)*d lowered with %d while loops, want 1\n%s", st.While, p)
	}
	// Star body: two advances; final concat with d: one more.
	if st.Shift < 3 {
		t.Errorf("a(bc)*d lowered with %d shifts, want >= 3\n%s", st.Shift, p)
	}
}

func TestLowerSharesClassesAcrossGroup(t *testing.T) {
	r1 := Regex{Name: "r1", AST: rx.MustParse("abc")}
	r2 := Regex{Name: "r2", AST: rx.MustParse("abd")}
	p, err := Group([]Regex{r1, r2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Classes a, b, c, d: exactly four distinct class expansions; since
	// each singleton costs 7 ops, a shared build stays well under the
	// unshared 6*7.
	st := ir.CollectStats(p)
	ccOps := st.And + st.Or + st.Not
	if ccOps > 4*8+8 {
		t.Errorf("group lowering did not share classes: %d class-ish ops\n%s", ccOps, p)
	}
	if len(p.Outputs) != 2 {
		t.Fatalf("outputs = %d, want 2", len(p.Outputs))
	}
}

func TestLowerMultiRegexGroupResults(t *testing.T) {
	regexes := []Regex{
		{Name: "cat", AST: rx.MustParse("cat")},
		{Name: "dog", AST: rx.MustParse("dog")},
		{Name: "animal", AST: rx.MustParse("(cat)|(dog)")},
	}
	p, err := Group(regexes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("catdogcat")
	res, err := ir.Interpret(p, transpose.Transpose(input), ir.InterpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["cat"].Positions(); len(got) != 2 || got[0] != 2 || got[1] != 8 {
		t.Errorf("cat ends = %v", got)
	}
	if got := res.Outputs["dog"].Positions(); len(got) != 1 || got[0] != 5 {
		t.Errorf("dog ends = %v", got)
	}
	union := res.Outputs["cat"].Or(res.Outputs["dog"])
	if !union.Equal(res.Outputs["animal"]) {
		t.Errorf("animal != cat|dog: %s vs %s", res.Outputs["animal"], union)
	}
}

func TestLowerEmptyMatchingPatterns(t *testing.T) {
	// Patterns that can match empty must mark every position, including the
	// end-of-input offset: 4 positions for a 3-byte input.
	for _, pattern := range []string{"a*", "a?", "(ab)*", "a{0,3}"} {
		got := lowerAndRun(t, rx.MustParse(pattern), []byte("xyz"))
		if got.Len() != 4 || got.Popcount() != 4 {
			t.Errorf("%q on xyz = %s, want all ones incl. end-of-input", pattern, got)
		}
	}
}

func TestLowerUnrollBudget(t *testing.T) {
	ast := rx.Repeat{Sub: rx.MustParse("(abcde){10}"), Min: 10, Max: 10}
	_, err := Group([]Regex{{Name: "big", AST: ast}}, Options{MaxUnroll: 50})
	if err == nil {
		t.Fatal("expected unroll budget error")
	}
}

func TestQuickLowerMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized oracle comparison")
	}
	rng := rand.New(rand.NewSource(20250705))
	alphabet := []byte("abc")
	for trial := 0; trial < 300; trial++ {
		ast := rx.Generate(rng, rx.GenOptions{MaxDepth: 3, Alphabet: alphabet, MaxRepeat: 3})
		n := 1 + rng.Intn(48)
		input := make([]byte, n)
		for i := range input {
			input[i] = alphabet[rng.Intn(len(alphabet))]
		}
		got := lowerAndRun(t, ast, input)
		want := oracleEnds(t, rx.ToGoRegexp(ast), input)
		if !got.Equal(want) {
			t.Fatalf("trial %d: pattern %q input %q:\n got  %s\n want %s",
				trial, ast.String(), input, got, want)
		}
	}
}

func TestLowerFoldCaseAgainstOracle(t *testing.T) {
	pattern := "ab[c-e]f"
	ast, err := rx.ParseWith(pattern, rx.Options{FoldCase: true})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("ABCF abdf aBEf ABXF")
	got := lowerAndRun(t, ast, input)
	re := regexp.MustCompile("(?i)^(?:" + pattern + ")$")
	want := bitstream.New(len(input))
	for j := 0; j < len(input); j++ {
		for i := 0; i <= j; i++ {
			if re.Match(input[i : j+1]) {
				want.Set(j)
				break
			}
		}
	}
	if !got.Equal(want) {
		t.Fatalf("fold-case mismatch:\n got  %s\n want %s", got, want)
	}
}

func TestLowerFullByteRange(t *testing.T) {
	// Binary signature over a full-range input (the ClamAV shape).
	pattern := "\\x00\\xff\\x80"
	ast := rx.MustParse(pattern)
	input := []byte{0, 0xff, 0x80, 1, 0, 0xff, 0x80, 0xff}
	got := lowerAndRun(t, ast, input)
	if p := got.Positions(); len(p) != 2 || p[0] != 2 || p[1] != 6 {
		t.Fatalf("positions = %v, want [2 6]", p)
	}
}
