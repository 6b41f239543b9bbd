package workload

import (
	"math/rand"
	"regexp"
	"testing"

	"bitgen/internal/rx"
)

func TestInstantiateProducesMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 150; trial++ {
		ast := rx.Generate(rng, rx.GenOptions{MaxDepth: 3, MaxRepeat: 3})
		s := Instantiate(rng, ast)
		re, err := regexp.Compile("^(?:" + rx.ToGoRegexp(ast) + ")$")
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if !re.MatchString(s) {
			t.Fatalf("Instantiate(%q) = %q does not match", ast.String(), s)
		}
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

func TestInstantiateAppPatterns(t *testing.T) {
	for _, name := range Names() {
		app := loadSmall(t, name)
		rng := rand.New(rand.NewSource(3))
		for _, pat := range app.Patterns[:min(5, len(app.Patterns))] {
			ast := rx.MustParse(pat)
			s := Instantiate(rng, ast)
			if !isASCII(s) {
				// Go's regexp is rune-oriented and cannot oracle raw
				// byte patterns (ClamAV signatures); the engine-level
				// tests cover those through the NFA cross-check.
				continue
			}
			re := regexp.MustCompile("^(?:" + pat + ")$")
			if !re.MatchString(s) {
				t.Errorf("%s: instance of %q does not match: %q", name, pat, s)
			}
		}
	}
}
