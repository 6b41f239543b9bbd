// Package workload provides deterministic synthetic stand-ins for the ten
// benchmark applications of Table 1 (AutomataZoo, ANMLZoo and Becchi's
// Regex suite are not redistributable here). Each generator is tuned to the
// published workload shape: regex count, length statistics, and the
// instruction-mix character that drives the paper's results — Yara is
// literal/shift-heavy with almost no loops, Brill is control-heavy (many
// while loops), Protomata is alternation-heavy, Dotstar is ".*"-dominated,
// ClamAV has very long signatures, ExactMatch is pure literals.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"bitgen/internal/lower"
	"bitgen/internal/rx"
)

// App is one generated benchmark application.
type App struct {
	// Name is the paper's application name.
	Name string
	// Patterns holds the regex source strings.
	Patterns []string
	// Regexes holds the parsed patterns, named for output streams.
	Regexes []lower.Regex
	// Input is the byte stream to scan.
	Input []byte
}

// Options scale a generated application.
type Options struct {
	// RegexScale multiplies the paper's regex count (Table 1); 0 means
	// 0.05 (5%), which keeps full sweeps tractable while preserving each
	// workload's per-regex character.
	RegexScale float64
	// InputBytes is the input length; 0 means 1_000_000 (the paper's
	// 10^6-byte inputs).
	InputBytes int
	// Seed perturbs generation; the same (name, options) pair is fully
	// deterministic.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.RegexScale == 0 {
		o.RegexScale = 0.05
	}
	if o.InputBytes == 0 {
		o.InputBytes = 1_000_000
	}
	return o
}

// spec describes one application generator.
type spec struct {
	name       string
	paperCount int
	genPattern func(rng *rand.Rand) string
	genInput   func(rng *rand.Rand, n int, patterns []string) []byte
}

// Names returns the application names in the paper's Table 1 order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// Load generates an application deterministically.
func Load(name string, opts Options) (*App, error) {
	opts = opts.withDefaults()
	var sp *spec
	for i := range specs {
		if specs[i].name == name {
			sp = &specs[i]
			break
		}
	}
	if sp == nil {
		return nil, fmt.Errorf("workload: unknown application %q", name)
	}
	rng := rand.New(rand.NewSource(hashSeed(name) ^ opts.Seed))
	count := int(float64(sp.paperCount)*opts.RegexScale + 0.5)
	if count < 4 {
		count = 4
	}
	app := &App{Name: name}
	seen := make(map[string]bool)
	for len(app.Patterns) < count {
		pat := sp.genPattern(rng)
		if seen[pat] {
			continue
		}
		seen[pat] = true
		ast, err := rx.Parse(pat)
		if err != nil {
			return nil, fmt.Errorf("workload %s: generated unparsable pattern %q: %v", name, pat, err)
		}
		app.Patterns = append(app.Patterns, pat)
		app.Regexes = append(app.Regexes, lower.Regex{Name: pat, AST: ast})
	}
	app.Input = sp.genInput(rng, opts.InputBytes, app.Patterns)
	return app, nil
}

func hashSeed(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}

// ---- shared vocabulary helpers ----

const lowerLetters = "abcdefghijklmnopqrstuvwxyz"
const hexDigits = "0123456789abcdef"
const aminoAcids = "ACDEFGHIKLMNPQRSTVWY"

func randWord(rng *rand.Rand, alphabet string, lo, hi int) string {
	n := lo + rng.Intn(hi-lo+1)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// plantPatterns seeds the input with full matching instances of random
// patterns (plus bare literal fragments for partial-match pressure) so a
// realistic, small fraction of positions match.
func plantPatterns(rng *rand.Rand, buf []byte, patterns []string, density float64) {
	plants := int(float64(len(buf)) * density)
	for i := 0; i < plants; i++ {
		pat := patterns[rng.Intn(len(patterns))]
		var frag string
		if i%2 == 0 {
			if ast, err := rx.Parse(pat); err == nil {
				frag = Instantiate(rng, ast)
			}
		} else {
			frag = literalFragment(pat)
		}
		if frag == "" || len(frag) >= len(buf) {
			continue
		}
		pos := rng.Intn(len(buf) - len(frag))
		copy(buf[pos:], frag)
	}
}

// Instantiate produces one string matched by the AST: classes pick a
// random member, alternations a random branch, stars zero to two
// repetitions, bounded repetition its minimum (plus occasional extras).
func Instantiate(rng *rand.Rand, node rx.Node) string {
	var b strings.Builder
	instantiateInto(rng, node, &b)
	return b.String()
}

func instantiateInto(rng *rand.Rand, node rx.Node, b *strings.Builder) {
	switch x := node.(type) {
	case rx.CC:
		members := make([]byte, 0, 8)
		for c := 0; c < 256 && len(members) < 64; c++ {
			if x.Class.Contains(byte(c)) {
				members = append(members, byte(c))
			}
		}
		if len(members) > 0 {
			b.WriteByte(members[rng.Intn(len(members))])
		}
	case rx.Concat:
		for _, p := range x.Parts {
			instantiateInto(rng, p, b)
		}
	case rx.Alt:
		if len(x.Alts) > 0 {
			instantiateInto(rng, x.Alts[rng.Intn(len(x.Alts))], b)
		}
	case rx.Repeat:
		n := x.Min
		switch {
		case x.Max == rx.Unbounded && x.Min <= 1: // x* and x+: up to 2 copies
			n += rng.Intn(3 - x.Min)
		case x.Min == 0 && x.Max == 1: // x?: a coin flip
			n = 1 - rng.Intn(2)
		case x.Max != rx.Unbounded && x.Max > x.Min && rng.Intn(2) == 0:
			n += rng.Intn(x.Max - x.Min + 1)
		}
		for i := 0; i < n; i++ {
			instantiateInto(rng, x.Sub, b)
		}
	}
}

// literalFragment extracts a plain literal prefix run of a pattern source
// (metacharacters end the run).
func literalFragment(pattern string) string {
	var b strings.Builder
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		if strings.IndexByte(".*+?()[]{}|\\^$", c) >= 0 {
			break
		}
		b.WriteByte(c)
	}
	return b.String()
}
