package rx

import "testing"

// FuzzParse asserts the parser never panics and that accepted patterns
// round-trip through String and re-Parse.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"a(bc)*d", "(abc)|d", "[a-z0-9]+@[a-z]{2,}", "a{2,5}?", "\\d\\w\\s",
		"((((((((((a))))))))))", "[^\\x00-\\x1f]*", "a|", "|a", "{", "}", "[]",
		"a{999}", "\\", "(?:x)", "[a-\\d]", "....", "x" + string(rune(0x80)),
		"a{0,}", "a{1,}", "a{0,1}", "(a{1,})*", "((ab)?){0,}",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, pattern string) {
		ast, err := Parse(pattern)
		if err != nil {
			return // rejection is fine; panics are not
		}
		rendered := ast.String()
		re2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q, rendered %q, but re-parse failed: %v", pattern, rendered, err)
		}
		if re2.String() != rendered {
			t.Fatalf("render not stable: %q -> %q -> %q", pattern, rendered, re2.String())
		}
	})
}
