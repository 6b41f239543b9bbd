package bitgen

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// stdlibLits are the literal bytes the stdlib fuzzer writes into patterns and
// draws most input bytes from. k and s (with K and S) are there because Go's
// (?i) folds them with non-ASCII runes (U+212A, U+017F) that ASCII input
// never holds, so they must still fold like ASCII.
const stdlibLits = "abksABKS019_ -.\n\t"

// stdlibPattern writes one random pattern in the dialect rx and Go's regexp
// share: literals, bracket classes (negated or not, with ranges and Perl
// classes), \d \w \s \D \W, '.', groups, '|', and one of * + ? {m,n} {m,}
// per atom. There is no (?:, no anchor and no empty alternative.
func stdlibPattern(rng *rand.Rand, depth int) string {
	var b strings.Builder
	for range 1 + rng.Intn(2) { // alternatives
		if b.Len() > 0 {
			b.WriteByte('|')
		}
		for range 1 + rng.Intn(3) { // atoms
			atom := stdlibAtom(rng, depth)
			switch rng.Intn(8) {
			case 0:
				atom += "*"
			case 1:
				atom += "+"
			case 2:
				atom += "?"
			case 3:
				m := rng.Intn(3)
				atom += fmt.Sprintf("{%d,%d}", m, max(m, 1)+rng.Intn(3))
			case 4:
				atom += fmt.Sprintf("{%d,}", rng.Intn(3))
			}
			b.WriteString(atom)
		}
	}
	return b.String()
}

func stdlibAtom(rng *rand.Rand, depth int) string {
	perl := []string{`\d`, `\w`, `\s`, `\D`, `\W`}
	lit := func() string {
		switch c := stdlibLits[rng.Intn(len(stdlibLits))]; c {
		case '.':
			return `\.`
		case '\n':
			return `\n`
		case '\t':
			return `\t`
		default:
			return string(c)
		}
	}
	switch r := rng.Intn(10); {
	case r < 5:
		return lit()
	case r == 5:
		return perl[rng.Intn(len(perl))]
	case r == 6:
		return "."
	case r == 7 && depth > 0:
		return "(" + stdlibPattern(rng, depth-1) + ")"
	default:
		var b strings.Builder
		b.WriteByte('[')
		if rng.Intn(2) == 0 {
			b.WriteByte('^')
		}
		const members = "abkszABKSZ0159_"
		for range 1 + rng.Intn(3) {
			switch rng.Intn(3) {
			case 0:
				b.WriteString(perl[rng.Intn(len(perl))])
			case 1:
				b.WriteByte(members[rng.Intn(len(members))])
			default:
				lo, hi := members[rng.Intn(len(members))], members[rng.Intn(len(members))]
				b.WriteByte(min(lo, hi))
				b.WriteByte('-')
				b.WriteByte(max(lo, hi))
			}
		}
		b.WriteByte(']')
		return b.String()
	}
}

// stdlibEnds is Go's all-match answer for one pattern: every End (inclusive,
// as Match.End) such that some non-empty substring ending there matches.
// (?:p)$ on input[:e] asks exactly that for the exclusive end e.
func stdlibEnds(re *regexp.Regexp, input []byte) []int {
	var ends []int
	for e := 1; e <= len(input); e++ {
		if re.Match(input[:e]) {
			ends = append(ends, e-1)
		}
	}
	return ends
}

// FuzzMatchersAgreeStdlib checks Engine.Run against Go's regexp, an oracle
// the engine shares no code with: a set of 1–6 generated patterns (FoldCase
// becomes (?i)) over ASCII input, compared pattern index by pattern index.
// Nullable patterns are excluded — the engine reports their empty match at
// end of input only, which regexp has no single answer for — so every end
// compared is a non-empty match. Input bytes are ASCII without \v, which rx's
// \s holds and Go's does not.
func FuzzMatchersAgreeStdlib(f *testing.F) {
	for _, s := range []struct {
		seed uint64
		data string
	}{
		{1, "abc ABC ab-ba a.b"}, {2, "aAbB1_ kKsS\n\t-."}, {3, ""}, {4, "0123456789 zz __ --"},
		{5, "sSkK sk KS\tks"}, {6, "a\nb\nc  \t. AaAa"},
	} {
		f.Add(s.seed, []byte(s.data))
	}
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		rng := rand.New(rand.NewSource(int64(seed)))
		fold := rng.Intn(2) == 0
		prefix := ""
		if fold {
			prefix = "(?i)"
		}
		var patterns []string
		var oracles []*regexp.Regexp
		for n := 1 + rng.Intn(6); len(patterns) < n; {
			p := stdlibPattern(rng, 2)
			if regexp.MustCompile("^" + prefix + "(?:" + p + ")$").MatchString("") {
				continue // nullable
			}
			patterns = append(patterns, p)
			oracles = append(oracles, regexp.MustCompile(prefix+"(?:"+p+")$"))
		}
		input := make([]byte, min(len(data), 256))
		for i := range input {
			if b := data[i]; b%7 == 0 && b&0x7f != '\v' {
				input[i] = b & 0x7f
			} else {
				input[i] = stdlibLits[int(b)%len(stdlibLits)]
			}
		}
		eng, err := Compile(patterns, &Options{FoldCase: fold})
		if errors.Is(err, ErrLimit) {
			t.Skip(err)
		}
		if err != nil {
			t.Fatalf("compile %q: %v", patterns, err)
		}
		res, err := eng.Run(input)
		if err != nil {
			t.Fatalf("run %q: %v", patterns, err)
		}
		got := make([][]int, len(patterns))
		for _, m := range res.Matches {
			got[m.Index] = append(got[m.Index], m.End)
		}
		for i, re := range oracles {
			slices.Sort(got[i])
			if want := stdlibEnds(re, input); !slices.Equal(got[i], want) {
				t.Errorf("pattern %d %q (fold %v) on %q: ends %v, regexp %v", i, patterns[i], fold, input, got[i], want)
			}
		}
	})
}
