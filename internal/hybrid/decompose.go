package hybrid

import (
	"strings"

	"bitgen/internal/rx"
)

// Factors is the decomposition of one regex for prefiltering.
type Factors struct {
	// Literals is a set of strings such that every match of the regex
	// contains at least one of them. Empty means no usable factor.
	Literals []string
	// Exact is set when the regex is a single pure literal: prefilter
	// hits are matches, no confirmation needed.
	Exact bool
	// MaxLen is the longest possible match length; rx.Unbounded (-1) for
	// star/plus patterns.
	MaxLen int
}

// Decompose extracts the literal structure of a pattern, mirroring
// Hyperscan's decomposition step. minLiteral is the shortest literal factor
// worth prefiltering on (shorter factors fire constantly and filter
// nothing).
func Decompose(ast rx.Node, minLiteral int) Factors {
	if lit, ok := rx.LiteralString(ast); ok && len(lit) >= minLiteral {
		return Factors{Literals: []string{lit}, Exact: true, MaxLen: len(lit)}
	}
	f := Factors{MaxLen: rx.MaxLength(ast)}
	lits, ok := requiredLiterals(ast, minLiteral)
	if ok {
		f.Literals = lits
	}
	return f
}

// requiredLiterals returns strings such that every match of n contains at
// least one, with each string no shorter than minLen. ok is false when no
// such set exists.
func requiredLiterals(n rx.Node, minLen int) ([]string, bool) {
	switch x := n.(type) {
	case rx.CC:
		if s, ok := singleByte(x); ok && minLen <= 1 {
			return []string{s}, true
		}
		return nil, false
	case rx.Concat:
		// Best single mandatory part: collect the longest literal run of
		// single-byte classes; if none qualifies, try each part's own
		// factors.
		if lit := longestRun(x); len(lit) >= minLen {
			return []string{lit}, true
		}
		for _, p := range x.Parts {
			if lits, ok := requiredLiterals(p, minLen); ok {
				return lits, true
			}
		}
		return nil, false
	case rx.Alt:
		// Every alternative must contribute a factor.
		var all []string
		for _, a := range x.Alts {
			lits, ok := requiredLiterals(a, minLen)
			if !ok {
				return nil, false
			}
			all = append(all, lits...)
		}
		return all, true
	case rx.Repeat:
		if x.Min >= 1 {
			return requiredLiterals(x.Sub, minLen)
		}
	}
	// x*, x? and x{0,m} are optional: they guarantee nothing.
	return nil, false
}

// longestRun finds the longest literal substring guaranteed to appear in
// every match of the concatenation: consecutive mandatory single-byte
// parts, extending through x+ (one guaranteed byte, then the run breaks
// because more repetitions may intervene) and x{n,m} (n guaranteed bytes,
// continuing only when n == m).
func longestRun(c rx.Concat) string {
	best, cur := "", ""
	flush := func() {
		if len(cur) > len(best) {
			best = cur
		}
		cur = ""
	}
	for _, p := range c.Parts {
		switch x := p.(type) {
		case rx.CC:
			if s, ok := singleByte(x); ok {
				cur += s
				continue
			}
		case rx.Repeat:
			if cc, ok := x.Sub.(rx.CC); ok && x.Min >= 1 {
				if s, ok := singleByte(cc); ok {
					cur += strings.Repeat(s, x.Min)
					if x.Min == x.Max {
						continue
					}
					flush()
					continue
				}
			}
		}
		flush()
	}
	flush()
	return best
}

func singleByte(cc rx.CC) (string, bool) {
	if cc.Class.Size() != 1 {
		return "", false
	}
	for c := 0; c < 256; c++ {
		if cc.Class.Contains(byte(c)) {
			// NOT string(byte(c)): that UTF-8-encodes values >= 0x80.
			return string([]byte{byte(c)}), true
		}
	}
	return "", false
}
