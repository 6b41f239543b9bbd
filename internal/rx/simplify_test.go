package rx

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"bitgen/internal/charclass"
)

func TestSimplifyShapes(t *testing.T) {
	cases := map[string]string{
		"a|b|c":       "[a-c]",
		"(a|b)|(c|d)": "[a-d]",
		"a{1}":        "a",
		"a{1,1}":      "a",
		"a{0,}":       "a*",
		"a{1,}":       "a+",
		"a{0,1}":      "a?",
		"(a*)*":       "a*",
		"(a+)+":       "a+",
		"(a?)?":       "a?",
		"(a*)?":       "a*",
		"(a?)*":       "a*",
		"(a+)?":       "a*",
		"(a?)+":       "a*",
		"(a*)+":       "a*",
		"a|a|a":       "a",
		"(ab)(cd)":    "abcd",
	}
	for in, want := range cases {
		got := Simplify(MustParse(in)).String()
		if got != want {
			t.Errorf("Simplify(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSimplifyIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 200; i++ {
		n := Generate(rng, GenOptions{MaxDepth: 4})
		s1 := Simplify(n)
		s2 := Simplify(s1)
		if s1.String() != s2.String() {
			t.Fatalf("not idempotent: %q -> %q -> %q", n.String(), s1.String(), s2.String())
		}
	}
}

func TestSimplifyNeverGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 200; i++ {
		n := Generate(rng, GenOptions{MaxDepth: 4})
		before := countNodes(n)
		after := countNodes(Simplify(n))
		if after > before {
			t.Fatalf("simplify grew %q: %d -> %d nodes", n.String(), before, after)
		}
	}
}

func countNodes(n Node) int {
	c := 0
	Walk(n, func(Node) { c++ })
	return c
}

// TestSimplifyPreservesLanguage checks semantic equivalence via the Go
// regexp oracle on exhaustive short strings.
func TestSimplifyPreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	alphabet := []byte("ab")
	for trial := 0; trial < 150; trial++ {
		n := Generate(rng, GenOptions{MaxDepth: 3, Alphabet: alphabet, MaxRepeat: 3})
		s := Simplify(n)
		re1, err1 := regexp.Compile("^(?:" + ToGoRegexp(n) + ")$")
		re2, err2 := regexp.Compile("^(?:" + ToGoRegexp(s) + ")$")
		if err1 != nil || err2 != nil {
			t.Fatalf("oracle compile: %v %v", err1, err2)
		}
		// All strings over {a,b} up to length 6.
		var walk func(prefix []byte)
		walk = func(prefix []byte) {
			if re1.Match(prefix) != re2.Match(prefix) {
				t.Fatalf("simplify changed language of %q (-> %q) on %q",
					n.String(), s.String(), prefix)
			}
			if len(prefix) == 6 {
				return
			}
			for _, c := range alphabet {
				walk(append(prefix, c))
			}
		}
		walk(nil)
	}
}

// TestSimplifyMatchesRebuild holds Simplify to simplifyRebuild, the pass as it
// was when it rebuilt every node: the same tree from a raw AST and from an
// already simplified one. A simplified tree free of alternations of several
// non-class alternatives comes back without an allocation.
func TestSimplifyMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < 500; i++ {
		n := Generate(rng, GenOptions{MaxDepth: 5})
		want := dump(simplifyRebuild(n))
		s1 := Simplify(n)
		if got := dump(s1); got != want {
			t.Fatalf("Simplify(%q) = %s, rebuild gives %s", n, got, want)
		}
		if got := dump(Simplify(s1)); got != want {
			t.Fatalf("Simplify(Simplify(%q)) = %s, rebuild gives %s", n, got, want)
		}
	}
	for _, p := range []string{"abc", "a[0-9]+b*c?d{2,5}", "(ab)*c", "x.{3}y|z", "(a|bc)d"} {
		s := Simplify(MustParse(p))
		if a := testing.AllocsPerRun(20, func() { Simplify(s) }); a != 0 {
			t.Errorf("Simplify of simplified %q allocated %.0f times", p, a)
		}
	}
}

// dump prints n's structure: every node's kind, bounds and class.
func dump(n Node) string {
	var b strings.Builder
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case CC:
			fmt.Fprintf(&b, "CC%q", x.String())
			return
		case Concat:
			b.WriteString("Concat(")
			for _, p := range x.Parts {
				walk(p)
				b.WriteByte(' ')
			}
		case Alt:
			b.WriteString("Alt(")
			for _, a := range x.Alts {
				walk(a)
				b.WriteByte(' ')
			}
		case Star:
			b.WriteString("Star(")
			walk(x.Sub)
		case Plus:
			b.WriteString("Plus(")
			walk(x.Sub)
		case Opt:
			b.WriteString("Opt(")
			walk(x.Sub)
		case Repeat:
			fmt.Fprintf(&b, "Repeat%d,%d(", x.Min, x.Max)
			walk(x.Sub)
		}
		b.WriteByte(')')
	}
	walk(n)
	return b.String()
}

// simplifyRebuild is Simplify as it was before it returned simple trees as
// they are: every node rebuilt.
func simplifyRebuild(n Node) Node {
	switch x := n.(type) {
	case Concat:
		parts := make([]Node, 0, len(x.Parts))
		for _, p := range x.Parts {
			sp := simplifyRebuild(p)
			if inner, ok := sp.(Concat); ok {
				parts = append(parts, inner.Parts...)
				continue
			}
			parts = append(parts, sp)
		}
		if len(parts) == 1 {
			return parts[0]
		}
		return Concat{parts}
	case Alt:
		alts := make([]Node, 0, len(x.Alts))
		for _, a := range x.Alts {
			sa := simplifyRebuild(a)
			if inner, ok := sa.(Alt); ok {
				alts = append(alts, inner.Alts...)
				continue
			}
			alts = append(alts, sa)
		}
		var classUnion charclass.Class
		haveClass := false
		merged := make([]Node, 0, len(alts))
		seen := make(map[string]bool)
		for _, a := range alts {
			if cc, ok := a.(CC); ok {
				classUnion = classUnion.Union(cc.Class)
				haveClass = true
				continue
			}
			if key := a.String(); !seen[key] {
				seen[key] = true
				merged = append(merged, a)
			}
		}
		if haveClass {
			merged = append([]Node{CC{classUnion}}, merged...)
		}
		if len(merged) == 1 {
			return merged[0]
		}
		return Alt{merged}
	case Star:
		switch inner := simplifyRebuild(x.Sub).(type) {
		case Star:
			return inner
		case Plus:
			return Star{inner.Sub}
		case Opt:
			return Star{inner.Sub}
		default:
			return Star{inner}
		}
	case Plus:
		switch inner := simplifyRebuild(x.Sub).(type) {
		case Star, Plus:
			return inner
		case Opt:
			return Star{inner.Sub}
		default:
			return Plus{inner}
		}
	case Opt:
		switch inner := simplifyRebuild(x.Sub).(type) {
		case Star, Opt:
			return inner
		case Plus:
			return Star{inner.Sub}
		default:
			return Opt{inner}
		}
	case Repeat:
		sub := simplifyRebuild(x.Sub)
		switch {
		case x.Min == 1 && x.Max == 1:
			return sub
		case x.Min == 0 && x.Max == Unbounded:
			return simplifyRebuild(Star{sub})
		case x.Min == 1 && x.Max == Unbounded:
			return simplifyRebuild(Plus{sub})
		case x.Min == 0 && x.Max == 1:
			return simplifyRebuild(Opt{sub})
		case x.Min == 0 && x.Max == 0:
			return Concat{}
		}
		return Repeat{Sub: sub, Min: x.Min, Max: x.Max}
	}
	return n
}
