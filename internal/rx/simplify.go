package rx

import (
	"slices"

	"bitgen/internal/charclass"
)

// Simplify returns a semantically-equivalent, normalized AST:
//
//   - nested concatenations and alternations are flattened;
//   - alternations of single-byte-class alternatives merge into one class
//     ((a|b|[cd]) → [a-d]), shrinking the lowered program;
//   - duplicate alternatives are removed;
//   - degenerate repetitions collapse (x{1} → x, x{0,} → x*, x{1,} → x+,
//     (x*)* → x*, (x?)? → x?, (x+)+ → x+, (x*)? → x*, (x?)* → x*);
//   - empty concatenations inside operators fold away.
//
// The pass is idempotent and preserves all-match end-position semantics
// (property-tested against the stdlib oracle). A tree that is already simple
// comes back as it is, nothing rebuilt, so simplifying an AST a second time
// is a walk that allocates little.
func Simplify(n Node) Node {
	s, _ := simplify(n)
	return s
}

// simplify returns n's simplified form and whether it differs from n. A node
// whose every child comes back unchanged and that no rule rewrites is
// returned itself.
func simplify(n Node) (Node, bool) {
	switch x := n.(type) {
	case CC:
		return n, false
	case Concat:
		var parts []Node // nil until a part changes or flattens
		for i, p := range x.Parts {
			sp, changed := simplify(p)
			inner, flat := sp.(Concat)
			if parts == nil {
				if !changed && !flat {
					continue
				}
				parts = append(make([]Node, 0, len(x.Parts)), x.Parts[:i]...)
			}
			if flat {
				parts = append(parts, inner.Parts...)
			} else {
				parts = append(parts, sp)
			}
		}
		if parts == nil {
			if len(x.Parts) == 1 {
				return x.Parts[0], true
			}
			return n, false
		}
		if len(parts) == 1 {
			return parts[0], true
		}
		return Concat{parts}, true
	case Alt:
		return simplifyAlt(n, x)
	case Star:
		sub, changed := simplify(x.Sub)
		switch inner := sub.(type) {
		case Star:
			return inner, true // (x*)* = x*
		case Plus:
			return Star{inner.Sub}, true // (x+)* = x*
		case Opt:
			return Star{inner.Sub}, true // (x?)* = x*
		}
		if !changed {
			return n, false
		}
		return Star{sub}, true
	case Plus:
		sub, changed := simplify(x.Sub)
		switch inner := sub.(type) {
		case Star:
			return inner, true // (x*)+ = x*
		case Plus:
			return inner, true // (x+)+ = x+
		case Opt:
			return Star{inner.Sub}, true // (x?)+ = x*
		}
		if !changed {
			return n, false
		}
		return Plus{sub}, true
	case Opt:
		sub, changed := simplify(x.Sub)
		switch inner := sub.(type) {
		case Star:
			return inner, true // (x*)? = x*
		case Opt:
			return inner, true // (x?)? = x?
		case Plus:
			return Star{inner.Sub}, true // (x+)? = x*
		}
		if !changed {
			return n, false
		}
		return Opt{sub}, true
	case Repeat:
		sub, changed := simplify(x.Sub)
		switch {
		case x.Min == 1 && x.Max == 1:
			return sub, true
		case x.Min == 0 && x.Max == Unbounded:
			return Simplify(Star{sub}), true
		case x.Min == 1 && x.Max == Unbounded:
			return Simplify(Plus{sub}), true
		case x.Min == 0 && x.Max == 1:
			return Simplify(Opt{sub}), true
		case x.Min == 0 && x.Max == 0:
			return Concat{}, true // matches only the empty string
		}
		if !changed {
			return n, false
		}
		return Repeat{Sub: sub, Min: x.Min, Max: x.Max}, true
	}
	return n, false
}

// simplifyAlt flattens nested alternations, merges the single-class
// alternatives into one class placed first and drops duplicate alternatives
// (equal by their String form). An alternation of two or more simple
// alternatives that holds at most one class, first, and no duplicate is
// already simple.
func simplifyAlt(n Node, x Alt) (Node, bool) {
	var alts []Node // the flattened alternatives, once x is known not simple
	simple := len(x.Alts) != 1
	if !simple {
		alts = make([]Node, 0, len(x.Alts))
	}
	for i, a := range x.Alts {
		sa, changed := simplify(a)
		_, nested := sa.(Alt)
		_, isCC := sa.(CC)
		if simple && (changed || nested || isCC && i > 0) {
			simple = false
			alts = append(make([]Node, 0, len(x.Alts)), x.Alts[:i]...)
		}
		if simple {
			continue
		}
		if inner, ok := sa.(Alt); ok {
			alts = append(alts, inner.Alts...)
		} else {
			alts = append(alts, sa)
		}
	}
	if simple {
		if !hasDuplicate(x.Alts) {
			return n, false
		}
		alts = x.Alts
	}
	// Merge single-class alternatives and drop duplicates.
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
		key := a.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		merged = append(merged, a)
	}
	if haveClass {
		merged = append([]Node{CC{classUnion}}, merged...)
	}
	if len(merged) == 1 {
		return merged[0], true
	}
	return Alt{merged}, true
}

// hasDuplicate reports whether two of alts that are not classes print the
// same: simplifyAlt keeps only the first of them.
func hasDuplicate(alts []Node) bool {
	n := 0
	for _, a := range alts {
		if _, ok := a.(CC); !ok {
			n++
		}
	}
	if n < 2 {
		return false
	}
	keys := make([]string, 0, n)
	for _, a := range alts {
		if _, ok := a.(CC); !ok {
			keys = append(keys, a.String())
		}
	}
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return true
		}
	}
	return false
}
