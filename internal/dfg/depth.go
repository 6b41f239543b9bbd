package dfg

import "bitgen/internal/ir"

// Depths assigns every assignment its topological depth in the dataflow
// graph: sources (constants, basis reads) have depth 0 and every other
// assignment is one more than the deepest operand definition at that point
// in program order. The Shift Rebalancing pass moves shifts toward
// shallower operands to shorten dependency chains (Section 5.2).
func Depths(p *ir.Program) map[*ir.Assign]int {
	depth := make(map[*ir.Assign]int)
	varDepth := make([]int, p.NumVars)
	var walk func(body []ir.Stmt)
	walk = func(body []ir.Stmt) {
		for _, s := range body {
			switch x := s.(type) {
			case *ir.Assign:
				d := exprDepth(x.Expr, varDepth)
				depth[x] = d
				varDepth[x.Dst] = d
			case *ir.If:
				walk(x.Body)
			case *ir.While:
				// Loop-carried variables stabilize after two passes for
				// depth purposes; one extra pass keeps the ordering
				// useful without a full fixpoint.
				walk(x.Body)
				walk(x.Body)
			}
		}
	}
	walk(p.Stmts)
	return depth
}

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
