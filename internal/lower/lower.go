// Package lower compiles regular-expression ASTs into bitstream programs,
// implementing the paper's Figure 2 rules with all-match semantics: bit i of
// the output stream is 1 iff a match of the regex ends at input position i.
//
// Lowering threads a *marker* through the AST. A marker is the bitstream of
// cursor positions where the already-consumed prefix has just finished. The
// initial marker is the virtual "everywhere" marker (a match may start at
// any position, including before position 0), so the first character class
// of a pattern lowers to its raw match stream, exactly as in Listing 3.
// Subsequent classes lower to (M >> 1) & S_cc (Figure 2 (b)); alternation is
// a union (2 (c)); bounded repetition unrolls at compile time (2 (d)); and
// Kleene star becomes the fixed-point while loop of 2 (e).
package lower

import (
	"fmt"

	"bitgen/internal/charclass"
	"bitgen/internal/ir"
	"bitgen/internal/obs"
	"bitgen/internal/rx"
)

// Regex pairs a pattern with a display name for the output stream.
type Regex struct {
	Name string
	AST  rx.Node
}

// Options control lowering.
type Options struct {
	// MaxUnroll caps the total compile-time expansion of bounded
	// repetition per regex; zero means the default of 4096 expanded
	// sub-lowerings.
	MaxUnroll int
	// Obs, when non-nil, records a span per lowered group. Nil is free.
	Obs *obs.Observer
	// Lane is the trace lane of that span: groups lower concurrently, each
	// on its own (zero, the pipeline lane, for a caller lowering one).
	Lane int
	// SharedCC maps character classes the engine computes once per scan to
	// their extended-basis slot; groups read MatchBasis{8+slot} for them
	// instead of expanding the class inline. SharedExtBits is the engine's
	// total extended-stream count (>= every slot + 1).
	SharedCC      map[charclass.Class]int
	SharedExtBits int
}

const defaultMaxUnroll = 4096

// Group lowers a set of regexes into a single bitstream program with one
// output per regex. Character-class match streams are computed once at the
// top of the program and shared across all regexes in the group, as the
// multi-regex grouping of Section 7 requires.
func Group(regexes []Regex, opts Options) (*ir.Program, error) {
	if opts.MaxUnroll == 0 {
		opts.MaxUnroll = defaultMaxUnroll
	}
	span := opts.Obs.Span("compile", "lower-group", opts.Lane).Arg("regexes", len(regexes))
	defer span.End()
	b := ir.NewBuilder()
	if opts.SharedCC != nil || opts.SharedExtBits > 0 {
		b.SetShared(opts.SharedCC, opts.SharedExtBits)
	}
	// Normalize ASTs first: alternations of classes merge into single
	// classes, degenerate repetitions collapse — smaller programs, same
	// language (rx.Simplify is property-tested for equivalence).
	simplified := make([]rx.Node, len(regexes))
	for i, re := range regexes {
		simplified[i] = rx.Simplify(re.AST)
	}
	// Pre-pass: emit every character class at top level so that loop
	// bodies only contain shift/bitwise instructions (the paper's listings
	// always hoist match(text_trans, CCs) to the program head).
	for _, ast := range simplified {
		rx.Walk(ast, func(n rx.Node) {
			if cc, ok := n.(rx.CC); ok {
				b.MatchClass(cc.Class)
			}
		})
	}
	l := &lowerer{b: b, budget: opts.MaxUnroll}
	for i, re := range regexes {
		l.budget = opts.MaxUnroll
		m, err := l.lower(anyMarker, simplified[i])
		if err != nil {
			return nil, fmt.Errorf("lower %q: %w", re.Name, err)
		}
		v := l.materialize(m)
		if rx.MatchesEmpty(simplified[i]) {
			// A nullable regex also matches the empty string at the
			// end-of-input offset; executors add that extra position.
			b.OutputNullable(re.Name, v)
		} else {
			b.Output(re.Name, v)
		}
	}
	p := b.Program()
	if err := ir.Validate(p); err != nil {
		return nil, fmt.Errorf("lower: generated invalid program: %w", err)
	}
	span.Arg("instructions", ir.CollectStats(p).Total())
	return p, nil
}

// Classes returns the distinct character classes a set of regexes expands
// during lowering, in deterministic first-use order over the simplified
// ASTs. The engine uses it to decide which classes appear in several
// partition groups and are worth computing once per scan.
func Classes(regexes []Regex) []charclass.Class {
	var out []charclass.Class
	seen := make(map[charclass.Class]bool)
	EachClass(regexes, func(cl charclass.Class) {
		if !seen[cl] {
			seen[cl] = true
			out = append(out, cl)
		}
	})
	return out
}

// EachClass calls fn for every character class a set of regexes expands
// during lowering, repeats included, in first-use order over the simplified
// ASTs. ASTs the caller simplified already are walked as they are.
func EachClass(regexes []Regex, fn func(charclass.Class)) {
	for _, re := range regexes {
		rx.Walk(rx.Simplify(re.AST), func(n rx.Node) {
			if cc, ok := n.(rx.CC); ok {
				fn(cc.Class)
			}
		})
	}
}

// SharedProgram lowers a list of character classes into one bitstream
// program with an output per class, named by the class content key and in
// slot order: output i is extended basis stream 8+i of the groups that share
// the classes. The engine computes those streams from the classes' byte sets,
// not from this program; Engine.Shared builds it for the repo benchmark.
func SharedProgram(classes []charclass.Class) (*ir.Program, error) {
	b := ir.NewBuilder()
	for _, cl := range classes {
		b.Output(cl.Key(), b.MatchClass(cl))
	}
	p := b.Program()
	if err := ir.Validate(p); err != nil {
		return nil, fmt.Errorf("lower: shared-class program invalid: %w", err)
	}
	return p, nil
}

// Single lowers one pattern string with default options.
func Single(name, pattern string) (*ir.Program, error) {
	ast, err := rx.Parse(pattern)
	if err != nil {
		return nil, err
	}
	return Group([]Regex{{Name: name, AST: ast}}, Options{})
}

// MustSingle lowers one pattern and panics on error (tests, tables).
func MustSingle(name, pattern string) *ir.Program {
	p, err := Single(name, pattern)
	if err != nil {
		panic(err)
	}
	return p
}

// marker is a cursor bitstream, or the virtual "everywhere" marker.
type marker struct {
	v   ir.VarID
	any bool
}

var anyMarker = marker{v: ir.NoVar, any: true}

type lowerer struct {
	b      *ir.Builder
	budget int
}

func (l *lowerer) spend() error {
	l.budget--
	if l.budget < 0 {
		return fmt.Errorf("compile-time expansion budget exhausted (MaxUnroll)")
	}
	return nil
}

// materialize converts a marker to a concrete variable (the everywhere
// marker becomes an all-ones stream: an empty-matching pattern matches at
// every position under all-match semantics).
func (l *lowerer) materialize(m marker) ir.VarID {
	if !m.any {
		return m.v
	}
	return l.b.Emit(ir.Ones{})
}

// lower emits instructions matching node starting from marker m and returns
// the marker of match end positions.
func (l *lowerer) lower(m marker, node rx.Node) (marker, error) {
	if err := l.spend(); err != nil {
		return marker{}, err
	}
	switch x := node.(type) {
	case rx.CC:
		return l.lowerCC(m, x.Class), nil
	case rx.Concat:
		cur := m
		var err error
		for _, part := range x.Parts {
			cur, err = l.lower(cur, part)
			if err != nil {
				return marker{}, err
			}
		}
		return cur, nil
	case rx.Alt:
		return l.lowerAlt(m, x.Alts)
	case rx.Star:
		return l.lowerStar(m, x.Sub)
	case rx.Plus:
		first, err := l.lower(m, x.Sub)
		if err != nil {
			return marker{}, err
		}
		return l.lowerStar(first, x.Sub)
	case rx.Opt:
		matched, err := l.lower(m, x.Sub)
		if err != nil {
			return marker{}, err
		}
		return l.union(m, matched), nil
	case rx.Repeat:
		return l.lowerRepeat(m, x)
	}
	return marker{}, fmt.Errorf("unknown AST node %T", node)
}

// lowerCC implements Figure 2 (a)/(b): the class match stream, advanced and
// intersected with the incoming marker.
func (l *lowerer) lowerCC(m marker, cl charclass.Class) marker {
	cc := l.b.MatchClass(cl)
	if m.any {
		// Everywhere marker: every position may start a match, so the end
		// positions of a single class are simply its match stream.
		return marker{v: cc}
	}
	adv := l.b.Advance(m.v, 1)
	return marker{v: l.b.And(adv, cc)}
}

// union ORs two markers (Figure 2 (c)).
func (l *lowerer) union(a, b marker) marker {
	if a.any || b.any {
		return anyMarker
	}
	return marker{v: l.b.Or(a.v, b.v)}
}

func (l *lowerer) lowerAlt(m marker, alts []rx.Node) (marker, error) {
	if len(alts) == 0 {
		return m, nil
	}
	acc, err := l.lower(m, alts[0])
	if err != nil {
		return marker{}, err
	}
	for _, alt := range alts[1:] {
		next, err := l.lower(m, alt)
		if err != nil {
			return marker{}, err
		}
		acc = l.union(acc, next)
	}
	return acc, nil
}

// lowerStar lowers sub* from marker m. When sub is (equivalent to) a single
// character class, it emits the fused MatchStar instruction — Parabix's
// carry-smear identity — instead of a loop; otherwise it emits Figure 2
// (e)'s fixed-point while loop accumulating every position reachable by
// repeated applications of sub (the marker itself is included: star matches
// zero repetitions).
func (l *lowerer) lowerStar(m marker, sub rx.Node) (marker, error) {
	if m.any {
		// Zero repetitions already leave a cursor everywhere.
		return anyMarker, nil
	}
	if cl, ok := asSingleClass(sub); ok {
		cc := l.b.MatchClass(cl)
		return marker{v: l.b.Emit(ir.StarThru{M: m.v, C: cc})}, nil
	}
	// Note: when sub itself can match empty, t below includes the frontier
	// positions; the AndNot against result removes them, so the fixpoint
	// still converges while non-empty paths keep extending the marker.
	result := l.b.NewVar()
	l.b.EmitTo(result, ir.Copy{Src: m.v})
	frontier := l.b.NewVar()
	l.b.EmitTo(frontier, ir.Copy{Src: m.v})
	var loopErr error
	l.b.While(frontier, func() {
		t, err := l.lower(marker{v: frontier}, sub)
		if err != nil {
			loopErr = err
			return
		}
		// New positions only: frontier = t & ~result; result |= frontier.
		l.b.EmitTo(frontier, ir.Bin{Op: ir.OpAndNot, X: l.materialize(t), Y: result})
		l.b.EmitTo(result, ir.Bin{Op: ir.OpOr, X: result, Y: frontier})
	})
	if loopErr != nil {
		return marker{}, loopErr
	}
	return marker{v: result}, nil
}

// asSingleClass reports whether node matches exactly the strings of length
// one drawn from some class (so node* is a class closure): a CC, an
// alternation of such nodes, or x+ / x{1,} of such a node (since (x+)* ==
// x*). Opt and Star sub-cases are excluded: they match empty, and while
// (x?)* == x* too, the lowering of the enclosing star already handles the
// empty path through the general union, so restricting to non-empty shapes
// keeps this predicate simple and evidently correct.
func asSingleClass(node rx.Node) (charclass.Class, bool) {
	switch x := node.(type) {
	case rx.CC:
		return x.Class, true
	case rx.Alt:
		var union charclass.Class
		for _, alt := range x.Alts {
			cl, ok := asSingleClass(alt)
			if !ok {
				return charclass.Class{}, false
			}
			union = union.Union(cl)
		}
		return union, len(x.Alts) > 0
	case rx.Concat:
		if len(x.Parts) == 1 {
			return asSingleClass(x.Parts[0])
		}
	case rx.Plus:
		// (c+)* reaches exactly the same closure as c*.
		return asSingleClass(x.Sub)
	}
	return charclass.Class{}, false
}

// lowerRepeat implements Figure 2 (d): bounded repetition unrolls at
// compile time; {n,} chains n copies and then a star.
func (l *lowerer) lowerRepeat(m marker, rep rx.Repeat) (marker, error) {
	cur := m
	var err error
	for i := 0; i < rep.Min; i++ {
		cur, err = l.lower(cur, rep.Sub)
		if err != nil {
			return marker{}, err
		}
	}
	if rep.Max == rx.Unbounded {
		return l.lowerStar(cur, rep.Sub)
	}
	acc := cur
	for i := rep.Min; i < rep.Max; i++ {
		cur, err = l.lower(cur, rep.Sub)
		if err != nil {
			return marker{}, err
		}
		acc = l.union(acc, cur)
	}
	return acc, nil
}
