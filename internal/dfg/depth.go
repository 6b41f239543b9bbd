package dfg

import "bitgen/internal/ir"

// exprDepth is an expression's topological depth in the dataflow graph:
// sources (constants, basis reads) are 0, anything else one more than its
// deepest operand (a Copy as deep as its source).
func exprDepth(e ir.Expr, varDepth []int) int {
	switch x := e.(type) {
	case ir.Zero, ir.Ones, ir.MatchBasis:
		return 0
	case ir.Copy:
		return varDepth[x.Src]
	case ir.Not:
		return varDepth[x.Src] + 1
	case ir.Bin:
		d := varDepth[x.X]
		if varDepth[x.Y] > d {
			d = varDepth[x.Y]
		}
		return d + 1
	case ir.Shift:
		return varDepth[x.Src] + 1
	}
	return 0
}

// VarDepthsInto computes the depth of each variable at the end of a
// straight-line prefix of assignments (used by the rebalancer when deciding
// which operand is shallower) into buf, a table the caller reuses from run to
// run: it is resized to numVars entries, reallocated only to grow, and
// cleared first.
func VarDepthsInto(buf []int, stmts []*ir.Assign, numVars int) []int {
	if cap(buf) < numVars {
		buf = make([]int, numVars, numVars+numVars/2+8)
	}
	buf = buf[:numVars]
	clear(buf)
	for _, a := range stmts {
		buf[a.Dst] = exprDepth(a.Expr, buf)
	}
	return buf
}
