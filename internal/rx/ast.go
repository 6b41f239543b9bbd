// Package rx implements the regular-expression front end: an AST for the
// paper's Listing-1 grammar and a recursive-descent parser for a practical
// byte-oriented syntax. The AST has four node kinds: character classes,
// concatenation, alternation and repetition. Kleene star and the derivable
// R+ and R? are the repetitions {0,}, {1,} and {0,1}.
package rx

import (
	"fmt"
	"strings"

	"bitgen/internal/charclass"
)

// Node is a regular-expression AST node.
type Node interface {
	isNode()
	// String renders the node in a syntax this package can re-parse.
	String() string
}

// CC matches a single byte from a character class.
type CC struct {
	Class charclass.Class
}

// Concat matches its factors in sequence. An empty Concat matches the empty
// string (used for ε).
type Concat struct {
	Parts []Node
}

// Alt matches any one of its alternatives.
type Alt struct {
	Alts []Node
}

// Repeat matches between Min and Max repetitions. Max == Unbounded means
// {Min,} (no upper bound). R*, R+ and R? are {0,}, {1,} and {0,1}.
type Repeat struct {
	Sub      Node
	Min, Max int
}

// Unbounded marks a Repeat with no upper bound.
const Unbounded = -1

func (CC) isNode()     {}
func (Concat) isNode() {}
func (Alt) isNode()    {}
func (Repeat) isNode() {}

func (n CC) String() string { return ccString(n.Class) }

func (n Concat) String() string {
	var b strings.Builder
	for _, p := range n.Parts {
		if a, ok := p.(Alt); ok && len(a.Alts) > 1 {
			b.WriteString("(" + p.String() + ")")
		} else {
			b.WriteString(p.String())
		}
	}
	return b.String()
}

func (n Alt) String() string {
	parts := make([]string, len(n.Alts))
	for i, a := range n.Alts {
		parts[i] = a.String()
	}
	return strings.Join(parts, "|")
}

func (n Repeat) String() string { return groupString(n.Sub) + n.suffix() }

// isQuantifier reports whether the bounds are one of '*', '+' and '?'.
func (n Repeat) isQuantifier() bool {
	return n.Min <= 1 && n.Max == Unbounded || n.Min == 0 && n.Max == 1
}

// suffix renders the bounds as a postfix operator, in a syntax both this
// package and Go's regexp parse: '*', '+' and '?' for {0,}, {1,} and {0,1}.
func (n Repeat) suffix() string {
	switch {
	case n.Max == Unbounded && n.Min == 0:
		return "*"
	case n.Max == Unbounded && n.Min == 1:
		return "+"
	case n.Min == 0 && n.Max == 1:
		return "?"
	case n.Max == Unbounded:
		return fmt.Sprintf("{%d,}", n.Min)
	case n.Min == n.Max:
		return fmt.Sprintf("{%d}", n.Min)
	default:
		return fmt.Sprintf("{%d,%d}", n.Min, n.Max)
	}
}

// groupString wraps multi-element sub-expressions in parentheses so that a
// postfix operator binds to the whole node when re-parsed.
func groupString(n Node) string {
	switch x := n.(type) {
	case CC:
		return x.String()
	case Concat:
		if len(x.Parts) == 1 {
			return groupString(x.Parts[0])
		}
	}
	return "(" + n.String() + ")"
}

// ccString renders a class as a literal byte when it is a singleton of a
// plain character, else in bracket syntax.
func ccString(cl charclass.Class) string {
	if cl.Size() == 1 {
		for c := 0; c < 256; c++ {
			if cl.Contains(byte(c)) {
				return escapeLiteral(byte(c))
			}
		}
	}
	if cl.Equal(charclass.Dot()) {
		return "."
	}
	return cl.String()
}

func escapeLiteral(c byte) string {
	switch c {
	case '.', '*', '+', '?', '(', ')', '[', ']', '{', '}', '|', '\\', '^', '$':
		return "\\" + string(c)
	case '\n':
		return "\\n"
	case '\t':
		return "\\t"
	case '\r':
		return "\\r"
	}
	if c >= 0x20 && c < 0x7f {
		return string(c)
	}
	return fmt.Sprintf("\\x%02x", c)
}

// Literal builds a Concat of single-byte classes for an exact string match.
func Literal(s string) Node {
	parts := make([]Node, len(s))
	for i := 0; i < len(s); i++ {
		parts[i] = CC{charclass.Single(s[i])}
	}
	return Concat{parts}
}

// Walk calls fn for n and every descendant, pre-order.
func Walk(n Node, fn func(Node)) {
	fn(n)
	switch x := n.(type) {
	case Concat:
		for _, p := range x.Parts {
			Walk(p, fn)
		}
	case Alt:
		for _, a := range x.Alts {
			Walk(a, fn)
		}
	case Repeat:
		Walk(x.Sub, fn)
	}
}

// MinLength returns the length in bytes of the shortest string the node can
// match.
func MinLength(n Node) int {
	switch x := n.(type) {
	case CC:
		return 1
	case Concat:
		total := 0
		for _, p := range x.Parts {
			total += MinLength(p)
		}
		return total
	case Alt:
		if len(x.Alts) == 0 {
			return 0
		}
		m := MinLength(x.Alts[0])
		for _, a := range x.Alts[1:] {
			if v := MinLength(a); v < m {
				m = v
			}
		}
		return m
	case Repeat:
		return x.Min * MinLength(x.Sub)
	}
	return 0
}

// MatchesEmpty reports whether the node can match the empty string.
func MatchesEmpty(n Node) bool { return MinLength(n) == 0 }

// MaxLength returns the length in bytes of the longest string the node can
// match, or Unbounded when there is none ('*', '+', '{n,}' anywhere the
// match must pass through). Streaming overlap and the hybrid engine's
// confirmation regions are both sized from it.
func MaxLength(n Node) int {
	switch x := n.(type) {
	case CC:
		return 1
	case Concat:
		total := 0
		for _, p := range x.Parts {
			l := MaxLength(p)
			if l == Unbounded {
				return Unbounded
			}
			total += l
		}
		return total
	case Alt:
		best := 0
		for _, a := range x.Alts {
			l := MaxLength(a)
			if l == Unbounded {
				return Unbounded
			}
			if l > best {
				best = l
			}
		}
		return best
	case Repeat:
		if x.Max == Unbounded {
			return Unbounded
		}
		l := MaxLength(x.Sub)
		if l == Unbounded {
			return Unbounded
		}
		return l * x.Max
	}
	return 0
}

// LiteralString reports whether the node is an exact literal (a Concat of
// singleton classes) and returns it.
func LiteralString(n Node) (string, bool) {
	switch x := n.(type) {
	case CC:
		if x.Class.Size() == 1 {
			for c := 0; c < 256; c++ {
				if x.Class.Contains(byte(c)) {
					// NOT string(byte(c)): that UTF-8-encodes values
					// >= 0x80 into two bytes.
					return string([]byte{byte(c)}), true
				}
			}
		}
		return "", false
	case Concat:
		var b strings.Builder
		for _, p := range x.Parts {
			s, ok := LiteralString(p)
			if !ok {
				return "", false
			}
			b.WriteString(s)
		}
		return b.String(), true
	}
	return "", false
}
