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

// ExprString renders an expression in listing style.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case Zero:
		return "0"
	case Ones:
		return "~0"
	case Copy:
		return fmt.Sprintf("S%d", x.Src)
	case Not:
		return fmt.Sprintf("~S%d", x.Src)
	case Bin:
		return fmt.Sprintf("S%d %s S%d", x.X, x.Op, x.Y)
	case Shift:
		if x.K >= 0 {
			return fmt.Sprintf("S%d >> %d", x.Src, x.K)
		}
		return fmt.Sprintf("S%d << %d", x.Src, -x.K)
	case StarThru:
		return fmt.Sprintf("MatchStar(S%d, S%d)", x.M, x.C)
	case MatchBasis:
		return fmt.Sprintf("b%d", x.Bit)
	}
	return fmt.Sprintf("?%T", e)
}
