package dfg

import "bitgen/internal/ir"

// UseDef summarizes how a statement list touches each variable: Defs counts
// assignments, Uses counts reads — instruction operands and guard/if/while
// conditions alike. The kernel's superblock compiler consults it to find
// single-def single-use temporaries: a value defined by one instruction and
// consumed exactly once by the instruction that immediately follows can be
// fused into its consumer and live entirely in registers inside one fused
// pass, never touching a window buffer or a backing stream.
type UseDef struct {
	Defs []int32
	Uses []int32
}

// SingleUseTemp reports whether v is a fusion-eligible temporary within the
// analyzed statement list: exactly one definition and exactly one read.
func (ud UseDef) SingleUseTemp(v ir.VarID) bool {
	return ud.Defs[v] == 1 && ud.Uses[v] == 1
}

// CountUseDef tallies definitions and uses over stmts (recursing into
// if/while bodies). numVars bounds the variable space.
func CountUseDef(stmts []ir.Stmt, numVars int) UseDef {
	ud := UseDef{Defs: make([]int32, numVars), Uses: make([]int32, numVars)}
	var buf [2]ir.VarID
	ir.WalkStmts(stmts, func(s ir.Stmt) {
		switch x := s.(type) {
		case *ir.Assign:
			for _, v := range ir.OperandsInto(x.Expr, &buf) {
				ud.Uses[v]++
			}
			ud.Defs[x.Dst]++
		case *ir.Guard:
			ud.Uses[x.Cond]++
		case *ir.If:
			ud.Uses[x.Cond]++
		case *ir.While:
			ud.Uses[x.Cond]++
		}
	})
	return ud
}
