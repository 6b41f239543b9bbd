// Package kernel implements the paper's execution models for bitstream
// programs on the simulated GPU: sequential block-wise execution (Figure 1a
// / Figure 5), the partially-fused "Base" of the ablation study, and
// interleaved execution with Dependency-Aware Thread-Data Mapping
// (Section 4), including the dynamic overlap handling for while loops and
// MatchStar carries, barrier-merged shift schedules from Shift Rebalancing
// (Section 5), and Zero Block Skipping guards (Section 6).
//
// One Run executes one CTA: a single bitstream program (one regex group)
// over one input, producing exact match streams plus the event counters the
// cost model consumes. Multi-CTA orchestration lives in package engine.
package kernel

import (
	"fmt"

	"bitgen/internal/dfg"
	"bitgen/internal/ir"
)

// Mode selects the execution model (the rows of Table 3).
type Mode int

const (
	// ModeSequential runs every instruction in its own block-wise loop,
	// materializing every intermediate bitstream (Figure 1 (a)).
	ModeSequential Mode = iota
	// ModeBase fuses only runs of shift-free bitwise instructions; every
	// shift, carry or control statement gets its own loop (the ablation
	// baseline of Table 3).
	ModeBase
	// ModeDTMStatic ("DTM-") interleaves straight-line code, resolving
	// static cross-block dependencies by recomputation; control flow
	// still splits loops and materializes intermediates.
	ModeDTMStatic
	// ModeDTM fully interleaves the program into a single loop with
	// dynamic overlap analysis for loops and carries.
	ModeDTM
)

func (m Mode) String() string {
	switch m {
	case ModeSequential:
		return "Sequential"
	case ModeBase:
		return "Base"
	case ModeDTMStatic:
		return "DTM-"
	case ModeDTM:
		return "DTM"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// planNode is one schedulable piece of a program.
type planNode interface{ isPlanNode() }

// fusedSeg is a run of statements executed in one fused block-wise loop.
// Under ModeDTM it may contain nested control flow, executed window-locally.
//
// an and liveOut cache the segment's dataflow analysis and live-out set:
// both depend only on the statements, so a session reusing a plan across
// chunks computes them once instead of per run.
type fusedSeg struct {
	stmts      []ir.Stmt
	an         *dfg.Analysis
	liveOut    []ir.VarID
	liveOutSet bool
	// sprog is the segment's compiled superblock program (see superblock.go),
	// built lazily on first execution and reused across windows and chunks.
	sprog *sbProgram
}

// ctlSeg is an if or while whose condition is evaluated globally (on a
// materialized stream) and whose body is a nested plan. Used by all modes
// except ModeDTM (and by ModeDTM for loops in the materialize fallback set).
type ctlSeg struct {
	cond    ir.VarID
	isWhile bool
	body    *plan
}

// streamSeg executes a single instruction over the whole stream, block by
// block in order, forwarding shift neighborhoods and carries between
// consecutive blocks (always exact). Sequential mode uses it for every
// instruction; Base mode for shifts and carries; DTM uses it as the
// Section 8.2 fallback when a carry chain exceeds the overlap limit.
type streamSeg struct {
	assign *ir.Assign
}

func (*fusedSeg) isPlanNode()  {}
func (*ctlSeg) isPlanNode()    {}
func (*streamSeg) isPlanNode() {}

// plan is an ordered list of plan nodes.
type plan struct {
	nodes []planNode
}

// buildPlan segments a statement list according to the mode. materialize
// holds while statements forced to global (fallback) execution.
func buildPlan(stmts []ir.Stmt, mode Mode, materialize map[ir.Stmt]bool) *plan {
	p := &plan{}
	var cur []ir.Stmt
	flush := func() {
		if len(cur) > 0 {
			p.nodes = append(p.nodes, &fusedSeg{stmts: cur})
			cur = nil
		}
	}
	startsOwnSeg := func(s ir.Stmt) bool {
		a, ok := s.(*ir.Assign)
		if !ok {
			return false
		}
		switch mode {
		case ModeSequential:
			return true
		case ModeBase:
			switch a.Expr.(type) {
			case ir.Shift, ir.Add, ir.StarThru:
				return true
			}
		}
		return false
	}
	for _, s := range stmts {
		switch x := s.(type) {
		case *ir.Assign:
			if startsOwnSeg(s) || materialize[s] {
				flush()
				p.nodes = append(p.nodes, &streamSeg{assign: x})
				continue
			}
			cur = append(cur, s)
		case *ir.Guard:
			// Guards only pay off inside fused interleaved execution.
			if mode == ModeDTM || mode == ModeDTMStatic {
				cur = append(cur, s)
			}
		case *ir.If:
			if mode == ModeDTM && !materialize[s] {
				cur = append(cur, s)
				continue
			}
			flush()
			p.nodes = append(p.nodes, &ctlSeg{
				cond: x.Cond, isWhile: false,
				body: buildPlan(x.Body, mode, materialize),
			})
		case *ir.While:
			if mode == ModeDTM && !materialize[s] {
				cur = append(cur, s)
				continue
			}
			flush()
			p.nodes = append(p.nodes, &ctlSeg{
				cond: x.Cond, isWhile: true,
				body: buildPlan(x.Body, mode, materialize),
			})
		default:
			panic(fmt.Sprintf("kernel: unknown statement %T", s))
		}
	}
	flush()
	return p
}

// countLoops returns the static number of fused block-wise loops in the
// plan (Table 4's compile-time #Loop column).
func (p *plan) countLoops() int {
	n := 0
	for _, node := range p.nodes {
		switch x := node.(type) {
		case *fusedSeg, *streamSeg:
			n++
		case *ctlSeg:
			n += x.body.countLoops()
		}
	}
	return n
}

// liveness computes which variables must be materialized in global memory:
// a variable whose value crosses a fused-segment boundary. That covers (a)
// defined in one segment and read in another, (b) used as the condition of
// a globally-executed if/while, (c) read inside a ctl body before being
// (re)defined in the current body pass — a loop-carried value from the
// previous global iteration — and (d) outputs, but those defined in one
// top-level fused segment only (topDef), which commitWindow keeps compact.
// Returns the materialization set and the number of non-output
// ("intermediate") streams (Table 4's #Intermediate Bitstream column).
func liveness(p *plan, prog *ir.Program) (materialized []bool, intermediates int) {
	materialized, topDef := make([]bool, prog.NumVars), make([]bool, prog.NumVars)
	defSeg := make([]int, prog.NumVars)
	for i := range defSeg {
		defSeg[i] = -1
	}
	segCounter := 0
	var scanPlan func(pl *plan, insideCtl bool)
	scanPlan = func(pl *plan, insideCtl bool) {
		for _, node := range pl.nodes {
			switch x := node.(type) {
			case *fusedSeg:
				segID := segCounter
				segCounter++
				definedHere := make(map[ir.VarID]bool)
				use := func(v ir.VarID) {
					if definedHere[v] {
						return // produced earlier in this pass: stays in registers
					}
					if defSeg[v] == -1 {
						return // basis/constant source or validated-zero read
					}
					if defSeg[v] != segID || insideCtl {
						// Crossing a segment boundary, or re-reading the
						// previous global iteration's value.
						materialized[v] = true
					}
				}
				var scanStmts func(stmts []ir.Stmt)
				scanStmts = func(stmts []ir.Stmt) {
					for _, s := range stmts {
						switch y := s.(type) {
						case *ir.Assign:
							for _, v := range ir.Operands(y.Expr) {
								use(v)
							}
							topDef[y.Dst] = !insideCtl && (defSeg[y.Dst] == -1 || topDef[y.Dst] && defSeg[y.Dst] == segID)
							definedHere[y.Dst] = true
							defSeg[y.Dst] = segID
						case *ir.Guard:
							use(y.Cond)
						case *ir.If:
							use(y.Cond)
							scanStmts(y.Body)
						case *ir.While:
							use(y.Cond)
							scanStmts(y.Body)
							// Window-local loop: condition and carried
							// values may be re-read at the loop head after
							// the body redefines them; that stays in
							// registers, so a second scan pass marks
							// nothing new.
							scanStmts(y.Body)
						}
					}
				}
				scanStmts(x.stmts)
			case *streamSeg:
				segID := segCounter
				segCounter++
				for _, v := range ir.Operands(x.assign.Expr) {
					if defSeg[v] != -1 && (defSeg[v] != segID || insideCtl) {
						materialized[v] = true
					}
				}
				defSeg[x.assign.Dst], topDef[x.assign.Dst] = segID, false
			case *ctlSeg:
				materialized[x.cond] = true
				scanPlan(x.body, true)
			}
		}
	}
	scanPlan(p, false)
	outputs := make(map[ir.VarID]bool)
	for _, o := range prog.Outputs {
		materialized[o.Var] = materialized[o.Var] || !topDef[o.Var]
		outputs[o.Var] = true
	}
	for v, m := range materialized {
		if m && !outputs[ir.VarID(v)] {
			intermediates++
		}
	}
	return materialized, intermediates
}
