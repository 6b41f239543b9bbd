// Package ir defines the bitstream-program intermediate representation of
// the paper's Listing 2: a sequence of bitstream instructions (bitwise
// operations and shifts over unbounded bitstreams in three-address form)
// plus while loops and zero-block guards whose conditions are bitstreams
// tested for "any bit set" (popcount > 0).
//
// An instruction is one pointer-free Expr value — an Op over up to two
// variables and a constant — and the same form feeds every consumer: the
// whole-stream CPU interpreter (the icgrep analog and golden reference), the
// block-wise GPU executor, the analysis/transformation passes (dataflow
// graph, shift rebalancing, zero-block skipping) and the packed codec.
package ir

import "slices"

// VarID names a bitstream variable (SSA-ish: the lowering assigns each
// variable once per static occurrence, but loop bodies reassign loop-carried
// variables, exactly as in the paper's listings).
type VarID int

// NoVar is the zero VarID used to mean "none".
const NoVar VarID = -1

// Op enumerates the instructions an assignment computes. The four binary
// bitwise operations come first: their values are the packed form's bin
// sub-op (see codec.go).
type Op uint8

const (
	OpAnd    Op = iota // X & Y
	OpOr               // X | Y
	OpXor              // X ^ Y
	OpAndNot           // X &^ Y
	OpZero             // the all-zero bitstream
	OpOnes             // the all-one bitstream (bounded by the input length)
	OpCopy             // X
	OpNot              // ~X
	// OpShift moves X's bits by K in paper stream terms: K > 0 is the
	// paper's "S >> K" (Advance, toward the future), K < 0 is "S << -K"
	// (Lookback). Shifts are the only instructions that create cross-block
	// dependencies.
	OpShift
	// OpStarThru is the fused MatchStar instruction: given end-position
	// markers M = X and a class stream C = Y, it computes, with
	// T = (M >> 1) & C, ((((T + C) ^ C) | T) & C) | M — every position
	// reachable from a marker through a run of class bytes, plus the
	// markers themselves. The Kleene closure of a character class lowers to
	// it instead of a fixed-point loop, which is why applications dominated
	// by ".*" patterns show tiny dynamic overlap distances in Table 5. Its
	// carry creates cross-block dependencies (a carry may enter from the
	// previous block); the interleaved executor detects boundary-crossing
	// carry runs at runtime. It is zero-preserving in M (no markers in, no
	// matches out), which keeps CC-star chains on zero paths for ZBS.
	OpStarThru
	// OpBasis reads basis bitstream K, one of the eight transposed input
	// bits or an extended (shared-class) stream. The lowering expands
	// character classes into bitwise operations over basis reads, so
	// instruction counts reflect the real bitwise work.
	OpBasis
	NumOps // one past the last operation
)

// arity is how many of X, Y each operation reads.
var arity = [NumOps]int{OpAnd: 2, OpOr: 2, OpXor: 2, OpAndNot: 2, OpCopy: 1, OpNot: 1, OpShift: 1, OpStarThru: 2}

// Arity returns how many of X, Y op reads: X alone, or X and Y.
func (op Op) Arity() int { return arity[op] }

// IsBin reports whether op is one of the four binary bitwise operations.
func (op Op) IsBin() bool { return op <= OpAndNot }

// Expr is the right-hand side of an assignment, Op over variables, keeping
// the program in three-address form for the analyses. X is a unary
// operation's source or StarThru's markers, Y the second operand or
// StarThru's class, K a shift's distance or a basis read's bit; fields an
// operation does not use are zero. K sits beside Op, in its padding.
type Expr struct {
	Op   Op
	K    int32
	X, Y VarID
}

// Stmt is one statement of a bitstream program.
type Stmt interface{ isStmt() }

// Assign computes Expr and stores it in Dst.
type Assign struct {
	Dst  VarID
	Expr Expr
}

// While repeatedly executes Body while Cond has any bit set in the active
// window. Cond is typically reassigned inside Body (the fixed-point loops of
// Figure 2 (d)/(e)).
type While struct {
	Cond VarID
	Body []Stmt
}

// Guard is inserted by the Zero Block Skipping pass: when Cond is all-zero
// in the active window, the next Skip statements of the enclosing body are
// skipped and their destination variables are zeroed (they lie on zero
// paths or are dead outside the range, so zeroing preserves semantics).
// Guards are advisory: interpreters may execute the statements anyway.
type Guard struct {
	Cond VarID
	Skip int
}

func (*Assign) isStmt() {}
func (*While) isStmt()  {}
func (*Guard) isStmt()  {}

// Output names a result bitstream of the program.
type Output struct {
	Name string // e.g. the source regex
	Var  VarID
	// Nullable marks regexes that match the empty string. Executors report
	// one extra match end for them at the end-of-input offset (position
	// Len(input)): the empty match after the last byte, which the
	// one-bit-per-input-byte stream cannot carry itself.
	Nullable bool
}

// Program is a complete bitstream program.
type Program struct {
	// Stmts is the top-level statement list.
	Stmts []Stmt
	// NumVars is one past the highest VarID in use.
	NumVars int
	// Outputs are the named match streams (one per regex in the group).
	Outputs []Output
	// Barriers, when non-nil, annotates the synchronization schedule
	// produced by the Shift Rebalancing pass (see package passes).
	Barriers *BarrierSchedule
	// ExtBits is the number of extended basis streams the program may read
	// beyond the eight raw transposed streams: basis bits in
	// [8, 8+ExtBits) address shared character-class streams computed once
	// per engine scan (see package lower's shared-CC support).
	ExtBits int
}

// BarrierSchedule records which shift statements share a synchronization
// point after barrier merging. The interleaved executor charges one barrier
// pair per group instead of one per shift.
type BarrierSchedule struct {
	// Groups lists, per merged group, the statement identities (pointers
	// into the program) of the co-scheduled shifts.
	Groups [][]*Assign
	// MergeSize is the configured maximum group size.
	MergeSize int
	// DedupedCopies counts shared-memory stores avoided because multiple
	// shifts of the same source variable were merged (Section 5.3).
	DedupedCopies int
}

// NewVar allocates a fresh variable.
func (p *Program) NewVar() VarID {
	v := VarID(p.NumVars)
	p.NumVars++
	return v
}

// Clone returns a deep copy of the program. The barrier schedule is carried
// over by remapping its statement identities onto the cloned assignments
// (matched by pre-order position, which cloning preserves).
func (p *Program) Clone() *Program {
	out := &Program{NumVars: p.NumVars, ExtBits: p.ExtBits, Outputs: append([]Output(nil), p.Outputs...)}
	out.Stmts = cloneStmts(p.Stmts)
	if p.Barriers != nil {
		oldIdx := make(map[*Assign]int)
		WalkStmts(p.Stmts, func(s Stmt) {
			if a, ok := s.(*Assign); ok {
				oldIdx[a] = len(oldIdx)
			}
		})
		var newAssigns []*Assign
		WalkStmts(out.Stmts, func(s Stmt) {
			if a, ok := s.(*Assign); ok {
				newAssigns = append(newAssigns, a)
			}
		})
		sched := &BarrierSchedule{
			MergeSize:     p.Barriers.MergeSize,
			DedupedCopies: p.Barriers.DedupedCopies,
			Groups:        make([][]*Assign, len(p.Barriers.Groups)),
		}
		for gi, g := range p.Barriers.Groups {
			ng := make([]*Assign, len(g))
			for i, a := range g {
				ng[i] = newAssigns[oldIdx[a]]
			}
			sched.Groups[gi] = ng
		}
		out.Barriers = sched
	}
	return out
}

func cloneStmts(list []Stmt) []Stmt {
	out := make([]Stmt, len(list))
	for i, s := range list {
		switch x := s.(type) {
		case *Assign:
			c := *x
			out[i] = &c
		case *While:
			out[i] = &While{Cond: x.Cond, Body: cloneStmts(x.Body)}
		case *Guard:
			c := *x
			out[i] = &c
		default:
			panic("ir: unknown statement type in Clone")
		}
	}
	return out
}

// OperandsInto writes the variables e reads into buf and returns the
// filled prefix.
func OperandsInto(e Expr, buf *[2]VarID) []VarID {
	buf[0], buf[1] = e.X, e.Y
	return buf[:arity[e.Op]]
}

// ReadsInto writes the variables s itself reads into buf and returns the
// filled prefix: an assignment's operands, or a guard's or while's
// condition. Bodies are not entered.
func ReadsInto(s Stmt, buf *[2]VarID) []VarID {
	switch x := s.(type) {
	case *Assign:
		return OperandsInto(x.Expr, buf)
	case *Guard:
		buf[0] = x.Cond
	case *While:
		buf[0] = x.Cond
	default:
		return buf[:0]
	}
	return buf[:1]
}

// LastReads returns, per variable, 1 + the index of the last statement of
// stmts that reads it, a read inside a while body counting as its
// enclosing statement's; 0 for a variable stmts never reads. Nothing in
// stmts reads a variable's value after that statement.
func LastReads(stmts []Stmt, numVars int) []int32 {
	return LastReadsInto(nil, stmts, numVars)
}

// LastReadsInto is LastReads into buf's storage, reallocated only to grow.
func LastReadsInto(buf []int32, stmts []Stmt, numVars int) []int32 {
	last := slices.Grow(buf[:0], numVars)[:numVars]
	clear(last)
	var reads [2]VarID
	for i := range stmts {
		at := int32(i + 1)
		WalkStmts(stmts[i:i+1], func(s Stmt) {
			for _, v := range ReadsInto(s, &reads) {
				last[v] = at
			}
		})
	}
	return last
}

// WalkStmts visits every statement (pre-order, recursing into bodies).
func WalkStmts(list []Stmt, fn func(Stmt)) {
	for _, s := range list {
		fn(s)
		if x, ok := s.(*While); ok {
			WalkStmts(x.Body, fn)
		}
	}
}

// Stats summarizes a program's instruction mix (the columns of Table 1).
type Stats struct {
	And, Or, Not, Xor, Shift, Star, While int
	Assigns                               int
}

// Total returns the total instruction count.
func (s Stats) Total() int {
	return s.And + s.Or + s.Not + s.Xor + s.Shift + s.Star + s.While
}

// CollectStats counts the instruction mix of a program.
func CollectStats(p *Program) Stats {
	var st Stats
	WalkStmts(p.Stmts, func(s Stmt) {
		switch x := s.(type) {
		case *Assign:
			st.Assigns++
			switch x.Expr.Op {
			case OpAnd, OpAndNot:
				st.And++
			case OpOr:
				st.Or++
			case OpXor:
				st.Xor++
			case OpNot:
				st.Not++
			case OpShift:
				st.Shift++
			case OpStarThru:
				st.Star++
			}
		case *While:
			st.While++
		}
	})
	return st
}
