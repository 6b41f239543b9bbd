package dfg

import "bitgen/internal/ir"

// UseDef summarizes how a statement list touches each variable: Defs counts
// assignments, Uses counts reads — instruction operands and guard/if/while
// conditions alike. The kernel's superblock compiler consults it to find
// single-def single-use temporaries: a value defined by one instruction and
// consumed exactly once by the instruction that immediately follows can be
// fused into its consumer and live entirely in registers inside one fused
// pass, never touching a window buffer or a backing stream. Last is 1 + the
// index of the last top-level statement that reads each variable, a read in
// an if or while body counting as its enclosing statement's; 0 for none.
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
// if/while bodies). numVars bounds the variable space.
func CountUseDef(stmts []ir.Stmt, numVars int) UseDef {
	all := make([]int32, 3*numVars)
	ud := UseDef{Defs: all[:numVars], Uses: all[numVars : 2*numVars], Last: all[2*numVars:]}
	var buf [2]ir.VarID
	var at int32
	use := func(v ir.VarID) {
		ud.Uses[v]++
		ud.Last[v] = at
	}
	visit := func(s ir.Stmt) {
		switch x := s.(type) {
		case *ir.Assign:
			for _, v := range ir.OperandsInto(x.Expr, &buf) {
				use(v)
			}
			ud.Defs[x.Dst]++
		case *ir.Guard:
			use(x.Cond)
		case *ir.If:
			use(x.Cond)
		case *ir.While:
			use(x.Cond)
		}
	}
	for i := range stmts {
		at = int32(i + 1)
		ir.WalkStmts(stmts[i:i+1], visit)
	}
	return ud
}
