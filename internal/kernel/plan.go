// Package kernel implements the paper's execution models for bitstream
// programs on the simulated GPU: the partially-fused "Base" of the ablation
// study, and interleaved execution with Dependency-Aware Thread-Data Mapping
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
	"slices"

	"bitgen/internal/dfg"
	"bitgen/internal/ir"
)

// Mode selects the execution model (the rows of Table 3). The zero Mode is
// ModeBase, which materializes what crosses its loops. Mode is not among the
// options hashCompileOptions folds into pattern-set keys and snapshots, so
// its numbering moves no key.
type Mode int

const (
	// ModeBase fuses only runs of shift-free bitwise instructions; every
	// shift, carry or control statement gets its own loop (the ablation
	// baseline of Table 3).
	ModeBase Mode = iota
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
// Compile fills in the segment's dataflow analysis, its live-out set — what
// it must commit: materialized or outputs — and its superblock program (see
// superblock.go), reused across windows and chunks, and for a segment the
// saturation probe may re-run, where the probe resumes the real pass (fork).
type fusedSeg struct {
	stmts   []ir.Stmt
	an      *dfg.Analysis
	liveOut []ir.VarID
	sprog   *sbProgram
	fork    *segFork // nil: no loop of the segment propagates, nothing is probed
}

// ctlSeg is a while whose condition is evaluated globally (on a materialized
// stream) and whose body is a nested plan. Used by all modes except ModeDTM
// (and by ModeDTM for loops in the materialize fallback set).
type ctlSeg struct {
	cond ir.VarID
	body *plan
}

// streamSeg executes a single instruction over the whole stream, block by
// block in order, forwarding shift neighborhoods and carries between
// consecutive blocks (always exact). Base mode uses it for shifts and
// carries; DTM uses it as the Section 8.2 fallback when a carry chain
// exceeds the overlap limit.
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
// holds while statements forced to global (fallback) execution. A fused
// segment is a subslice of the list: guards, which only pay off inside fused
// interleaved execution, are dropped first in the other modes.
func buildPlan(stmts []ir.Stmt, mode Mode, materialize map[ir.Stmt]bool) *plan {
	if mode != ModeDTM && mode != ModeDTMStatic {
		stmts = slices.DeleteFunc(slices.Clone(stmts), func(s ir.Stmt) bool { _, ok := s.(*ir.Guard); return ok })
	}
	p := &plan{}
	lo := 0
	flush := func(i int) { // ends the open segment before statement i, which is a node of its own
		if i > lo {
			p.nodes = append(p.nodes, &fusedSeg{stmts: stmts[lo:i:i]})
		}
		lo = i + 1
	}
	for i, s := range stmts {
		switch x := s.(type) {
		case *ir.Assign:
			own := materialize[s]
			if op := x.Expr.Op; op == ir.OpShift || op == ir.OpStarThru {
				own = own || mode == ModeBase
			}
			if own {
				flush(i)
				p.nodes = append(p.nodes, &streamSeg{assign: x})
			}
		case *ir.While:
			if mode != ModeDTM || materialize[s] {
				flush(i)
				p.nodes = append(p.nodes, &ctlSeg{cond: x.Cond, body: buildPlan(x.Body, mode, materialize)})
			}
		case *ir.Guard: // stays in the open segment
		default:
			panic(fmt.Sprintf("kernel: unknown statement %T", s))
		}
	}
	flush(len(stmts))
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
// a globally-executed while, (c) read inside a ctl body before being
// (re)defined in the current body pass — a loop-carried value from the
// previous global iteration — and (d) outputs, but those defined in one
// top-level fused segment only (topDef), which commitWindow keeps compact.
// Returns the materialization set, the outputs, and the number of non-output
// ("intermediate") materialized streams (Table 4's #Intermediate Bitstream
// column).
//
// defSeg is NumVars zeros of scratch, left zero: defSeg[v] becomes 1 + the
// segment that last defined v.
func liveness(p *plan, prog *ir.Program, defSeg []int32) (materialized, isOut []bool, intermediates int) {
	flags := make([]bool, 3*prog.NumVars)
	materialized, isOut, topDef := flags[:prog.NumVars], flags[prog.NumVars:2*prog.NumVars], flags[2*prog.NumVars:]
	defer clear(defSeg)
	var seg int32
	var buf [2]ir.VarID
	use := func(v ir.VarID) {
		// Crossing a segment boundary — inside a ctl body, possibly
		// re-reading the previous global iteration's value. A value produced
		// earlier in this segment's pass stays in registers; a basis or
		// constant source, or a validated-zero read, has no definition.
		if defSeg[v] != 0 && defSeg[v] != seg {
			materialized[v] = true
		}
	}
	var scanStmts func(stmts []ir.Stmt, insideCtl bool)
	scanStmts = func(stmts []ir.Stmt, insideCtl bool) {
		for _, s := range stmts {
			for _, v := range ir.ReadsInto(s, &buf) {
				use(v)
			}
			switch y := s.(type) {
			case *ir.Assign:
				topDef[y.Dst] = !insideCtl && (defSeg[y.Dst] == 0 || topDef[y.Dst] && defSeg[y.Dst] == seg)
				defSeg[y.Dst] = seg
			case *ir.While:
				// Window-local loop: what the head re-reads after the body
				// redefines it stays in registers, so one pass marks all.
				scanStmts(y.Body, insideCtl)
			}
		}
	}
	var scanPlan func(pl *plan, insideCtl bool)
	scanPlan = func(pl *plan, insideCtl bool) {
		for _, node := range pl.nodes {
			switch x := node.(type) {
			case *fusedSeg:
				seg++
				scanStmts(x.stmts, insideCtl)
			case *streamSeg:
				seg++
				for _, v := range ir.OperandsInto(x.assign.Expr, &buf) {
					use(v)
				}
				defSeg[x.assign.Dst], topDef[x.assign.Dst] = seg, false
			case *ctlSeg:
				materialized[x.cond] = true
				scanPlan(x.body, true)
			}
		}
	}
	scanPlan(p, false)
	for _, o := range prog.Outputs {
		materialized[o.Var] = materialized[o.Var] || !topDef[o.Var]
		isOut[o.Var] = true
	}
	for v, m := range materialized {
		if m && !isOut[v] {
			intermediates++
		}
	}
	return materialized, isOut, intermediates
}

// lastTouches lists, per top-level node of k's plan, the non-output
// materialized variables it reads or writes last (compiled.drop). last is
// NumVars zeros of scratch, left zero.
func lastTouches(k *compiled, last []int32) [][]ir.VarID {
	drop := make([][]ir.VarID, len(k.pl.nodes))
	if len(drop) < 2 {
		return drop
	}
	var buf [2]ir.VarID
	var touch func(node planNode, i int32)
	touch = func(node planNode, i int32) {
		switch x := node.(type) {
		case *fusedSeg:
			ir.WalkStmts(x.stmts, func(s ir.Stmt) {
				for _, v := range ir.ReadsInto(s, &buf) {
					last[v] = i
				}
				if a, ok := s.(*ir.Assign); ok {
					last[a.Dst] = i
				}
			})
		case *streamSeg:
			for _, v := range ir.OperandsInto(x.assign.Expr, &buf) {
				last[v] = i
			}
			last[x.assign.Dst] = i
		case *ctlSeg:
			last[x.cond] = i
			for _, n := range x.body.nodes {
				touch(n, i)
			}
		}
	}
	for i, node := range k.pl.nodes {
		touch(node, int32(i+1))
	}
	for v, i := range last {
		if i > 0 && k.isMat[v] && !k.isOut[v] {
			drop[i-1] = append(drop[i-1], ir.VarID(v))
		}
		last[v] = 0
	}
	return drop
}
