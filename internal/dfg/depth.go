package dfg

import "bitgen/internal/ir"

// exprDepth is an expression's topological depth in the dataflow graph:
// sources (constants, basis reads) are 0, anything else one more than its
// deepest operand (a Copy as deep as its source).
func exprDepth(e ir.Expr, varDepth []int) int {
	switch e.Op {
	case ir.OpCopy:
		return varDepth[e.X]
	case ir.OpNot, ir.OpShift:
		return varDepth[e.X] + 1
	case ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpAndNot:
		return max(varDepth[e.X], varDepth[e.Y]) + 1
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
