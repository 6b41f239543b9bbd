// Package nfa implements the automata-based baseline: Glushkov NFA
// construction from regex ASTs, a bitset-based CPU simulation (an
// independent matching oracle), and the ngAP-style non-blocking GPU
// worklist engine cost model the paper compares against.
package nfa

import (
	"fmt"

	"bitgen/internal/charclass"
	"bitgen/internal/rx"
)

// NFA is a Glushkov (position) automaton for one or more regexes. State 0
// is the start state; every other state corresponds to one character-class
// occurrence in some pattern and is entered by consuming a byte of that
// class.
//
// Follow and accept edges are stored in CSR (compressed sparse row) form:
// one contiguous data array plus per-state offsets, finalized once at
// Build. At ClamAV-megaset scale the per-state []int32 boxing this
// replaces cost 48+ bytes of slice-header and allocator overhead per
// state on top of the edges themselves; CSR stores exactly
// 4·(states+1) + 4·edges bytes per table, which is what keeps an
// NFA-pinned engine's reference automaton resident at 100k patterns.
type NFA struct {
	// Class[s] is the class consumed when entering state s (undefined for
	// state 0).
	Class []charclass.Class
	// followOff/followDat: FollowOf(s) = followDat[followOff[s]:followOff[s+1]].
	followOff []int32
	followDat []int32
	// acceptOff/acceptDat: Accepts(s) = acceptDat[acceptOff[s]:acceptOff[s+1]].
	acceptOff []int32
	acceptDat []int32
	// NullableOf[r] reports whether regex r matches the empty string.
	NullableOf []bool
	// NumRegex is the number of regexes compiled in.
	NumRegex int
	// Names holds the regex display names.
	Names []string
}

// NumStates returns the state count including the start state.
func (n *NFA) NumStates() int { return len(n.Class) }

// FollowOf lists the states reachable from s by one byte. The returned
// slice aliases the CSR data array and must not be mutated.
func (n *NFA) FollowOf(s int32) []int32 {
	return n.followDat[n.followOff[s]:n.followOff[s+1]]
}

// Accepts lists the regex indices accepting at state s. The returned
// slice aliases the CSR data array and must not be mutated.
func (n *NFA) Accepts(s int32) []int32 {
	return n.acceptDat[n.acceptOff[s]:n.acceptOff[s+1]]
}

// SizeBytes reports the automaton's resident memory: the CSR tables, the
// per-state classes and the metadata arrays.
func (n *NFA) SizeBytes() int64 {
	size := int64(len(n.Class)) * 32 // each Class is a 4×uint64 bitset
	size += 4 * int64(len(n.followOff)+len(n.followDat)+len(n.acceptOff)+len(n.acceptDat))
	size += int64(len(n.NullableOf))
	for _, name := range n.Names {
		size += 16 + int64(len(name))
	}
	return size
}

// glushkovSets holds the classic first/last/nullable sets over positions.
type glushkovSets struct {
	nullable bool
	first    []int32
	last     []int32
}

// builder accumulates follow/accept edges in per-state slices; Build
// finalizes them into the NFA's CSR arrays.
type builder struct {
	nfa      *NFA
	follow   [][]int32
	acceptOf [][]int32
}

// Build compiles a set of regexes into one combined Glushkov NFA.
func Build(names []string, asts []rx.Node) (*NFA, error) {
	if len(names) != len(asts) {
		return nil, fmt.Errorf("nfa: %d names for %d patterns", len(names), len(asts))
	}
	n := &NFA{
		Class:      make([]charclass.Class, 1), // state 0 = start
		NumRegex:   len(asts),
		Names:      append([]string(nil), names...),
		NullableOf: make([]bool, len(asts)),
	}
	b := &builder{
		nfa:      n,
		follow:   make([][]int32, 1),
		acceptOf: make([][]int32, 1),
	}
	for r, ast := range asts {
		sets := b.compile(ast)
		n.NullableOf[r] = sets.nullable
		// Unanchored start: first-positions are reachable from the start
		// state, which stays forever active during simulation.
		b.follow[0] = append(b.follow[0], sets.first...)
		for _, s := range sets.last {
			b.acceptOf[s] = append(b.acceptOf[s], int32(r))
		}
	}
	n.followOff, n.followDat = compactCSR(b.follow)
	n.acceptOff, n.acceptDat = compactCSR(b.acceptOf)
	return n, nil
}

// compactCSR flattens per-row slices into offset + data arrays.
func compactCSR(rows [][]int32) (off, dat []int32) {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	off = make([]int32, len(rows)+1)
	dat = make([]int32, 0, total)
	for i, r := range rows {
		off[i] = int32(len(dat))
		dat = append(dat, r...)
	}
	off[len(rows)] = int32(len(dat))
	return off, dat
}

// newState allocates a position state for a class occurrence.
func (b *builder) newState(cl charclass.Class) int32 {
	n := b.nfa
	s := int32(len(n.Class))
	n.Class = append(n.Class, cl)
	b.follow = append(b.follow, nil)
	b.acceptOf = append(b.acceptOf, nil)
	return s
}

// link adds follow edges from every state in from to every state in to.
func (b *builder) link(from, to []int32) {
	for _, f := range from {
		b.follow[f] = append(b.follow[f], to...)
	}
}

// compile returns the Glushkov sets of a node, creating its position states.
func (b *builder) compile(node rx.Node) glushkovSets {
	switch x := node.(type) {
	case rx.CC:
		s := b.newState(x.Class)
		return glushkovSets{nullable: false, first: []int32{s}, last: []int32{s}}
	case rx.Concat:
		cur := glushkovSets{nullable: true}
		for _, part := range x.Parts {
			next := b.compile(part)
			b.link(cur.last, next.first)
			cur = concatSets(cur, next)
		}
		return cur
	case rx.Alt:
		out := glushkovSets{nullable: false}
		if len(x.Alts) == 0 {
			return glushkovSets{nullable: true}
		}
		for i, alt := range x.Alts {
			s := b.compile(alt)
			if i == 0 {
				out = s
				continue
			}
			out.nullable = out.nullable || s.nullable
			out.first = append(out.first, s.first...)
			out.last = append(out.last, s.last...)
		}
		return out
	case rx.Repeat:
		return b.compileRepeat(x)
	}
	panic(fmt.Sprintf("nfa: unknown node %T", node))
}

func concatSets(a, c glushkovSets) glushkovSets {
	out := glushkovSets{nullable: a.nullable && c.nullable}
	out.first = append(out.first, a.first...)
	if a.nullable {
		out.first = append(out.first, c.first...)
	}
	out.last = append(out.last, c.last...)
	if c.nullable {
		out.last = append(out.last, a.last...)
	}
	return out
}

// compileRepeat expands bounded repetition by duplication, the standard
// Glushkov treatment. x+ is one copy looped back on itself.
func (b *builder) compileRepeat(rep rx.Repeat) glushkovSets {
	if rep.Min == 1 && rep.Max == rx.Unbounded {
		s := b.compile(rep.Sub)
		b.link(s.last, s.first)
		return s
	}
	cur := glushkovSets{nullable: true}
	for i := 0; i < rep.Min; i++ {
		next := b.compile(rep.Sub)
		b.link(cur.last, next.first)
		cur = concatSets(cur, next)
	}
	if rep.Max == rx.Unbounded {
		star := b.compile(rep.Sub)
		b.link(star.last, star.first)
		b.link(cur.last, star.first)
		return concatSets(cur, glushkovSets{nullable: true, first: star.first, last: star.last})
	}
	for i := rep.Min; i < rep.Max; i++ {
		opt := b.compile(rep.Sub)
		b.link(cur.last, opt.first)
		cur = concatSets(cur, glushkovSets{nullable: true, first: opt.first, last: opt.last})
	}
	return cur
}
