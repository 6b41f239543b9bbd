package rx

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"bitgen/internal/charclass"
)

func TestParseLiteral(t *testing.T) {
	n := MustParse("cat")
	lit, ok := LiteralString(n)
	if !ok || lit != "cat" {
		t.Fatalf("LiteralString = %q, %v", lit, ok)
	}
}

func TestParseAlternationStructure(t *testing.T) {
	n := MustParse("(abc)|d")
	alt, ok := n.(Alt)
	if !ok || len(alt.Alts) != 2 {
		t.Fatalf("got %#v, want 2-way Alt", n)
	}
	if lit, _ := LiteralString(alt.Alts[0]); lit != "abc" {
		t.Fatalf("first alternative = %q", lit)
	}
}

func TestParsePaperExample(t *testing.T) {
	// Listing 3's regex.
	n := MustParse("a(bc)*d")
	c, ok := n.(Concat)
	if !ok || len(c.Parts) != 3 {
		t.Fatalf("a(bc)*d parsed to %#v", n)
	}
	if rep, ok := c.Parts[1].(Repeat); !ok || rep.Min != 0 || rep.Max != Unbounded {
		t.Fatalf("middle part is %#v, want a star", c.Parts[1])
	}
}

func TestParsePostfixOperators(t *testing.T) {
	for pattern, want := range map[string][2]int{
		"a*":     {0, Unbounded},
		"a+":     {1, Unbounded},
		"a?":     {0, 1},
		"a{2,5}": {2, 5},
		"a{3}":   {3, 3},
		"a{2,}":  {2, Unbounded},
	} {
		rep, ok := MustParse(pattern).(Repeat)
		if !ok || rep.Min != want[0] || rep.Max != want[1] {
			t.Errorf("%q parsed to %#v, want Repeat{%d,%d}", pattern, MustParse(pattern), want[0], want[1])
		}
	}
}

func TestParseClasses(t *testing.T) {
	cases := map[string]func(charclass.Class) bool{
		"[a-z]":    func(c charclass.Class) bool { return c.Size() == 26 && c.Contains('q') },
		"[^a-z]":   func(c charclass.Class) bool { return c.Size() == 230 && !c.Contains('q') },
		"[abc]":    func(c charclass.Class) bool { return c.Size() == 3 },
		"[a-cx-z]": func(c charclass.Class) bool { return c.Size() == 6 },
		"[-a]":     func(c charclass.Class) bool { return c.Contains('-') && c.Contains('a') },
		"[a-]":     func(c charclass.Class) bool { return c.Contains('-') && c.Contains('a') },
		"[\\d]":    func(c charclass.Class) bool { return c.Equal(charclass.Digit) },
		"[\\]]":    func(c charclass.Class) bool { return c.Size() == 1 && c.Contains(']') },
		"[\\x41]":  func(c charclass.Class) bool { return c.Size() == 1 && c.Contains('A') },
	}
	for pattern, check := range cases {
		n, err := Parse(pattern)
		if err != nil {
			t.Errorf("Parse(%q): %v", pattern, err)
			continue
		}
		cc, ok := n.(CC)
		if !ok {
			t.Errorf("Parse(%q) = %T, want CC", pattern, n)
			continue
		}
		if !check(cc.Class) {
			t.Errorf("Parse(%q) class = %v", pattern, cc.Class)
		}
	}
}

func TestParseEscapes(t *testing.T) {
	for pattern, wantByte := range map[string]byte{
		"\\n":   '\n',
		"\\t":   '\t',
		"\\.":   '.',
		"\\\\":  '\\',
		"\\x20": ' ',
		"\\0":   0,
	} {
		n := MustParse(pattern)
		cc, ok := n.(CC)
		if !ok || cc.Class.Size() != 1 || !cc.Class.Contains(wantByte) {
			t.Errorf("Parse(%q) = %v, want single byte %q", pattern, n, wantByte)
		}
	}
	for _, named := range []string{"\\d", "\\w", "\\s", "\\D", "\\W", "\\S"} {
		if _, err := Parse(named); err != nil {
			t.Errorf("Parse(%q): %v", named, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"(", ")", "a(b", "[", "[z-a]", "a**b(", "\\", "*a", "+", "^a", "a$",
		"a{5,2}", "\\q", "\\x1", "a{2000}",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestLiteralBraceFallback(t *testing.T) {
	// '{' not introducing valid bounds is a literal, as in real rule sets.
	n, err := Parse("a{b}")
	if err != nil {
		t.Fatalf("Parse(a{b}): %v", err)
	}
	lit, ok := LiteralString(n)
	if !ok || lit != "a{b}" {
		t.Fatalf("LiteralString = %q, %v", lit, ok)
	}
}

func TestFoldCaseOption(t *testing.T) {
	n, err := ParseWith("abc", Options{FoldCase: true})
	if err != nil {
		t.Fatal(err)
	}
	first := n.(Concat).Parts[0].(CC)
	if !first.Class.Contains('A') || !first.Class.Contains('a') {
		t.Fatal("FoldCase not applied")
	}
}

func TestMinLength(t *testing.T) {
	for pattern, want := range map[string]int{
		"abc":      3,
		"a|bc":     1,
		"a*":       0,
		"a+":       1,
		"a?b":      1,
		"a{3,5}":   3,
		"(ab){2}c": 5,
	} {
		if got := MinLength(MustParse(pattern)); got != want {
			t.Errorf("MinLength(%q) = %d, want %d", pattern, got, want)
		}
	}
}

// TestMaxLength pins the bound the streaming overlap and the hybrid
// engine's confirmation regions are both sized from.
func TestMaxLength(t *testing.T) {
	for pattern, want := range map[string]int{
		"abc":             3, // literal
		"[a-f]":           1, // class
		".\\d[^x]":        3,
		"ab|cde|f":        3, // Alt takes the longest arm
		"ab?c":            3, // ? counts its operand
		"(ab)?":           2,
		"a{3,5}":          5,
		"a{0}":            0,
		"(a{2,3}b){1,4}":  16, // nested bounded Repeat multiplies
		"x(ab|c{2,3})?y":  5,
		"a*":              Unbounded,
		"a+":              Unbounded,
		"a{2,}":           Unbounded,
		"xa*y":            Unbounded, // ... through Concat
		"b|a+":            Unbounded, // ... through Alt
		"(a|b+)c":         Unbounded,
		"(a*){2,3}":       Unbounded, // ... through Repeat
		"(xa{1,}){3}":     Unbounded,
		"(x(y|z*)){1,2}w": Unbounded,
	} {
		if got := MaxLength(MustParse(pattern)); got != want {
			t.Errorf("MaxLength(%q) = %d, want %d", pattern, got, want)
		}
	}
}

func TestRoundTripThroughString(t *testing.T) {
	patterns := []string{
		"cat", "a(bc)*d", "(abc)|d", "[a-z0-9]+@[a-z0-9]+", "a{2,5}",
		"x(y|z)?w", "\\d\\d:\\d\\d", "a.c", "[^ab]*z",
	}
	for _, p := range patterns {
		n1 := MustParse(p)
		n2, err := Parse(n1.String())
		if err != nil {
			t.Errorf("re-parse of %q (rendered %q): %v", p, n1.String(), err)
			continue
		}
		if n1.String() != n2.String() {
			t.Errorf("round trip of %q: %q != %q", p, n1.String(), n2.String())
		}
	}
}

func TestQuickGeneratedPatternsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		n := Generate(rng, GenOptions{})
		rendered := n.String()
		re, err := Parse(rendered)
		if err != nil {
			t.Fatalf("generated pattern %q does not re-parse: %v", rendered, err)
		}
		if re.String() != rendered {
			t.Fatalf("round trip changed %q to %q", rendered, re.String())
		}
	}
}

func TestToGoRegexpCompiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := Generate(rng, GenOptions{})
		goSyntax := ToGoRegexp(n)
		if _, err := regexp.Compile(goSyntax); err != nil {
			t.Fatalf("generated Go syntax %q does not compile: %v (ast %q)",
				goSyntax, err, n.String())
		}
	}
}

func TestToGoRegexpSemanticsOnLiterals(t *testing.T) {
	n := MustParse("a(b|c)d")
	re := regexp.MustCompile(ToGoRegexp(n))
	if !re.MatchString("xacdx") || re.MatchString("xaed") {
		t.Fatalf("oracle regexp %q misbehaves", re)
	}
}

func TestWalkVisitsEverything(t *testing.T) {
	n := MustParse("a(b|c)*d{2,3}")
	count := 0
	Walk(n, func(Node) { count++ })
	if count < 7 {
		t.Fatalf("Walk visited %d nodes, want >= 7", count)
	}
}

func TestGenerateLiteral(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := GenerateLiteral(rng, GenOptions{}, 12)
	s, ok := LiteralString(n)
	if !ok || len(s) != 12 {
		t.Fatalf("GenerateLiteral = %q, %v", s, ok)
	}
	if strings.ContainsAny(s, "()*") {
		t.Fatalf("literal contains metacharacters: %q", s)
	}
}
