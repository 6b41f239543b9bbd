package dfg

import "bitgen/internal/ir"

// UseDef summarizes how a statement list touches each variable: Defs counts
// assignments, Uses counts reads — instruction operands and guard/while
// conditions alike. The kernel's superblock compiler consults it to find
// single-def single-use temporaries: a value defined by one instruction and
// consumed exactly once by the instruction that immediately follows can be
// fused into its consumer and live entirely in registers inside one fused
// pass, never touching a window buffer or a backing stream. Last is
// ir.LastReads: 1 + the index of the last top-level statement that reads
// each variable, 0 for none.
type UseDef struct {
	Defs []int32
	Uses []int32
	Last []int32
}

// SingleUseTemp reports whether v is a fusion-eligible temporary within the
// analyzed statement list: exactly one definition and exactly one read.
func (ud UseDef) SingleUseTemp(v ir.VarID) bool {
	return ud.Defs[v] == 1 && ud.Uses[v] == 1
}

// CountUseDef tallies definitions and uses over stmts (recursing into
// while bodies). numVars bounds the variable space.
func CountUseDef(stmts []ir.Stmt, numVars int) UseDef {
	counts := make([]int32, 2*numVars)
	ud := UseDef{Defs: counts[:numVars], Uses: counts[numVars:], Last: ir.LastReads(stmts, numVars)}
	var buf [2]ir.VarID
	ir.WalkStmts(stmts, func(s ir.Stmt) {
		for _, v := range ir.ReadsInto(s, &buf) {
			ud.Uses[v]++
		}
		if a, ok := s.(*ir.Assign); ok {
			ud.Defs[a.Dst]++
		}
	})
	return ud
}
