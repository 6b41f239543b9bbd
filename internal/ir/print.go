package ir

import (
	"fmt"
	"strings"
)

// String renders the program in the paper's listing style, e.g.
//
//	S3 = S1 & S2
//	while (S3):
//	    S4 = S3 >> 1
func (p *Program) String() string {
	var b strings.Builder
	writeStmts(&b, p.Stmts, 0)
	for _, o := range p.Outputs {
		fmt.Fprintf(&b, "# output %s = S%d\n", o.Name, o.Var)
	}
	return b.String()
}

func writeStmts(b *strings.Builder, list []Stmt, depth int) {
	indent := strings.Repeat("    ", depth)
	for _, s := range list {
		switch x := s.(type) {
		case *Assign:
			fmt.Fprintf(b, "%sS%d = %s\n", indent, x.Dst, ExprString(x.Expr))
		case *While:
			fmt.Fprintf(b, "%swhile (S%d):\n", indent, x.Cond)
			writeStmts(b, x.Body, depth+1)
		case *Guard:
			fmt.Fprintf(b, "%sif (!S%d) skip %d\n", indent, x.Cond, x.Skip)
		}
	}
}

// String is a binary bitwise operation's listing symbol, "?" for any other
// operation.
func (op Op) String() string {
	if op.IsBin() {
		return [...]string{"&", "|", "^", "&~"}[op]
	}
	return "?"
}

// ExprString renders an expression in listing style.
func ExprString(e Expr) string {
	switch e.Op {
	case OpZero:
		return "0"
	case OpOnes:
		return "~0"
	case OpCopy:
		return fmt.Sprintf("S%d", e.X)
	case OpNot:
		return fmt.Sprintf("~S%d", e.X)
	case OpAnd, OpOr, OpXor, OpAndNot:
		return fmt.Sprintf("S%d %s S%d", e.X, e.Op, e.Y)
	case OpShift:
		if e.K >= 0 {
			return fmt.Sprintf("S%d >> %d", e.X, e.K)
		}
		return fmt.Sprintf("S%d << %d", e.X, -e.K)
	case OpStarThru:
		return fmt.Sprintf("MatchStar(S%d, S%d)", e.X, e.Y)
	case OpBasis:
		return fmt.Sprintf("b%d", e.K)
	}
	return fmt.Sprintf("?op%d", uint8(e.Op))
}
