// Package ir defines the bitstream-program intermediate representation of
// the paper's Listing 2: a sequence of bitstream instructions (bitwise
// operations and shifts over unbounded bitstreams in three-address form)
// plus while loops and zero-block guards whose conditions are bitstreams
// tested for "any bit set" (popcount > 0).
//
// The same IR feeds three consumers: the whole-stream CPU interpreter (the
// icgrep analog and golden reference), the block-wise GPU executor, and the
// analysis/transformation passes (dataflow graph, shift rebalancing,
// zero-block skipping).
package ir

import "bitgen/internal/charclass"

// VarID names a bitstream variable (SSA-ish: the lowering assigns each
// variable once per static occurrence, but loop bodies reassign loop-carried
// variables, exactly as in the paper's listings).
type VarID int

// NoVar is the zero VarID used to mean "none".
const NoVar VarID = -1

// BinOp enumerates binary bitwise operations.
type BinOp int

const (
	OpAnd BinOp = iota
	OpOr
	OpXor
	OpAndNot
)

func (op BinOp) String() string {
	switch op {
	case OpAnd:
		return "&"
	case OpOr:
		return "|"
	case OpXor:
		return "^"
	case OpAndNot:
		return "&~"
	}
	return "?"
}

// Expr is the right-hand side of an assignment. Operands are variables,
// keeping the program in three-address form for the analyses.
type Expr interface{ isExpr() }

// Zero is the all-zero bitstream.
type Zero struct{}

// Ones is the all-one bitstream (bounded by the input length).
type Ones struct{}

// Copy reads another variable.
type Copy struct{ Src VarID }

// Not is bitwise complement of a variable.
type Not struct{ Src VarID }

// Bin applies a binary bitwise operation to two variables.
type Bin struct {
	Op   BinOp
	X, Y VarID
}

// Shift moves bits by a constant distance in paper stream terms:
// K > 0 is the paper's "S >> K" (Advance, toward the future), K < 0 is
// "S << -K" (Lookback). Shifts are the only instructions that create
// cross-block dependencies.
type Shift struct {
	Src VarID
	K   int
}

// StarThru is the fused MatchStar instruction: given end-position markers M
// and a class stream C, it computes, with T = (M >> 1) & C,
// ((((T + C) ^ C) | T) & C) | M — every position reachable from a marker
// through a run of class bytes, plus the markers themselves. The Kleene
// closure of a character class lowers to it instead of a fixed-point loop,
// which is why applications dominated by ".*" patterns show tiny dynamic
// overlap distances in Table 5. Its carry creates cross-block dependencies
// (a carry may enter from the previous block); the interleaved executor
// detects boundary-crossing carry runs at runtime. It is zero-preserving in
// M (no markers in, no matches out), which keeps CC-star chains on zero
// paths for ZBS.
type StarThru struct {
	M, C VarID
}

// MatchBasis reads one of the eight transposed basis bitstreams. The
// lowering expands character classes into Bin/Not over MatchBasis values, so
// instruction counts reflect the real bitwise work.
type MatchBasis struct{ Bit int }

func (Zero) isExpr()       {}
func (Ones) isExpr()       {}
func (Copy) isExpr()       {}
func (Not) isExpr()        {}
func (Bin) isExpr()        {}
func (Shift) isExpr()      {}
func (StarThru) isExpr()   {}
func (MatchBasis) isExpr() {}

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
	// beyond the eight raw transposed streams: MatchBasis bits in
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

// Operands returns the variables read by an expression.
func Operands(e Expr) []VarID {
	var buf [2]VarID
	return append([]VarID(nil), OperandsInto(e, &buf)...)
}

// OperandsInto is Operands without the per-call allocation: it writes the
// operand VarIDs into buf and returns the filled prefix. Compiler passes
// that walk whole programs per fixpoint round use this on their hot path.
func OperandsInto(e Expr, buf *[2]VarID) []VarID {
	switch x := e.(type) {
	case Copy:
		buf[0] = x.Src
		return buf[:1]
	case Not:
		buf[0] = x.Src
		return buf[:1]
	case Bin:
		buf[0], buf[1] = x.X, x.Y
		return buf[:2]
	case Shift:
		buf[0] = x.Src
		return buf[:1]
	case StarThru:
		buf[0], buf[1] = x.M, x.C
		return buf[:2]
	}
	return buf[:0]
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
	last := make([]int32, numVars)
	var buf [2]VarID
	for i := range stmts {
		at := int32(i + 1)
		WalkStmts(stmts[i:i+1], func(s Stmt) {
			for _, v := range ReadsInto(s, &buf) {
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
			switch e := x.Expr.(type) {
			case Bin:
				switch e.Op {
				case OpAnd, OpAndNot:
					st.And++
				case OpOr:
					st.Or++
				case OpXor:
					st.Xor++
				}
			case Not:
				st.Not++
			case Shift:
				st.Shift++
			case StarThru:
				st.Star++
			}
		case *While:
			st.While++
		}
	})
	return st
}

// CCRef is a compiled character class retained for diagnostics: the lowering
// registers each class it expands so tools can report them.
type CCRef struct {
	Class charclass.Class
	Var   VarID
}
