package charclass

import (
	"fmt"

	"bitgen/internal/bitstream"
	"bitgen/internal/transpose"
)

// Expr is a boolean expression over the eight basis bitstreams. Compiling a
// character class yields an Expr; the lowering stage turns it into bitstream
// instructions.
type Expr interface {
	classExpr()
	String() string
}

// True matches every position.
type True struct{}

// False matches no position.
type False struct{}

// Basis is the j-th basis bitstream (0 = MSB of each byte).
type Basis struct{ Bit int }

// Not negates a sub-expression.
type Not struct{ X Expr }

// And conjoins two sub-expressions.
type And struct{ X, Y Expr }

// Or disjoins two sub-expressions.
type Or struct{ X, Y Expr }

func (True) classExpr()  {}
func (False) classExpr() {}
func (Basis) classExpr() {}
func (Not) classExpr()   {}
func (And) classExpr()   {}
func (Or) classExpr()    {}

func (True) String() string    { return "1" }
func (False) String() string   { return "0" }
func (b Basis) String() string { return fmt.Sprintf("b%d", b.Bit) }
func (n Not) String() string   { return "~" + n.X.String() }
func (a And) String() string   { return "(" + a.X.String() + " & " + a.Y.String() + ")" }
func (o Or) String() string    { return "(" + o.X.String() + " | " + o.Y.String() + ")" }

// Compile lowers a character class to a boolean expression over basis bits
// using recursive cofactor decomposition on the byte's bits, MSB first
// (a reduced-ordered-BDD construction specialised to 8 variables). The
// result is minimal in the BDD sense: equal cofactors are shared and
// constant branches fold away.
func Compile(cl Class) Expr {
	return compileSub(cl, 0, 0)
}

// compileSub compiles the sub-class of bytes whose top `depth` bits equal
// `prefix`, deciding on bit `depth` next.
func compileSub(cl Class, depth int, prefix int) Expr {
	if isConstFalse(cl, depth, prefix) {
		return False{}
	}
	if isConstTrue(cl, depth, prefix) {
		return True{}
	}
	// depth < 8 here: a non-constant class always has a deciding bit left.
	lo := compileSub(cl, depth+1, prefix<<1)   // bit `depth` == 0
	hi := compileSub(cl, depth+1, prefix<<1|1) // bit `depth` == 1
	if exprEqual(lo, hi) {
		return lo
	}
	b := Expr(Basis{Bit: depth})
	switch {
	case isTrue(hi) && isFalse(lo):
		return b
	case isFalse(hi) && isTrue(lo):
		return Not{b}
	case isFalse(lo):
		return And{b, hi}
	case isFalse(hi):
		return And{Not{b}, lo}
	case isTrue(lo):
		return Or{Not{b}, hi}
	case isTrue(hi):
		return Or{b, lo}
	default:
		return Or{And{b, hi}, And{Not{b}, lo}}
	}
}

func isTrue(e Expr) bool  { _, ok := e.(True); return ok }
func isFalse(e Expr) bool { _, ok := e.(False); return ok }

// exprEqual is a structural equality check, sufficient here because
// compileSub is deterministic so equal cofactors produce identical trees.
func exprEqual(a, b Expr) bool {
	switch x := a.(type) {
	case True:
		return isTrue(b)
	case False:
		return isFalse(b)
	case Basis:
		y, ok := b.(Basis)
		return ok && x.Bit == y.Bit
	case Not:
		y, ok := b.(Not)
		return ok && exprEqual(x.X, y.X)
	case And:
		y, ok := b.(And)
		return ok && exprEqual(x.X, y.X) && exprEqual(x.Y, y.Y)
	case Or:
		y, ok := b.(Or)
		return ok && exprEqual(x.X, y.X) && exprEqual(x.Y, y.Y)
	}
	return false
}

// isConstFalse reports whether no byte with the given bit prefix is in cl.
func isConstFalse(cl Class, depth, prefix int) bool {
	width := 8 - depth
	base := prefix << uint(width)
	for i := 0; i < 1<<uint(width); i++ {
		if cl.Contains(byte(base | i)) {
			return false
		}
	}
	return true
}

// isConstTrue reports whether every byte with the given bit prefix is in cl.
func isConstTrue(cl Class, depth, prefix int) bool {
	width := 8 - depth
	base := prefix << uint(width)
	for i := 0; i < 1<<uint(width); i++ {
		if !cl.Contains(byte(base | i)) {
			return false
		}
	}
	return true
}

// OpCount returns the number of bitwise operations (and/or/not) the
// expression costs when lowered, used for workload statistics.
func OpCount(e Expr) (and, or, not int) {
	switch x := e.(type) {
	case Not:
		a, o, n := OpCount(x.X)
		return a, o, n + 1
	case And:
		a1, o1, n1 := OpCount(x.X)
		a2, o2, n2 := OpCount(x.Y)
		return a1 + a2 + 1, o1 + o2, n1 + n2
	case Or:
		a1, o1, n1 := OpCount(x.X)
		a2, o2, n2 := OpCount(x.Y)
		return a1 + a2, o1 + o2 + 1, n1 + n2
	}
	return 0, 0, 0
}

// Eval evaluates the expression directly over a transposed basis, producing
// the match bitstream of the class. It is the reference semantics used by
// tests and by the CPU (icgrep-analog) path.
func Eval(e Expr, basis *transpose.Basis) *bitstream.Stream {
	switch x := e.(type) {
	case True:
		return bitstream.NewOnes(basis.N)
	case False:
		return bitstream.New(basis.N)
	case Basis:
		return basis.Bit(x.Bit).Clone()
	case Not:
		return Eval(x.X, basis).Not()
	case And:
		return Eval(x.X, basis).And(Eval(x.Y, basis))
	case Or:
		return Eval(x.X, basis).Or(Eval(x.Y, basis))
	}
	panic(fmt.Sprintf("charclass: unknown expr %T", e))
}

// MatchStream computes the match bitstream of a class over an input by
// compiling and evaluating its basis expression. Tests compare it against
// the byte-at-a-time definition.
func MatchStream(cl Class, basis *transpose.Basis) *bitstream.Stream {
	return Eval(Compile(cl), basis)
}
