// Package passes implements BitGen's program transformations: Shift
// Rebalancing with barrier merging (Section 5) and Zero Block Skipping
// guard insertion (Section 6). All passes preserve whole-stream semantics;
// the test suite verifies transformed programs against the interpreter.
package passes

import (
	"slices"

	"bitgen/internal/dfg"
	"bitgen/internal/ir"
)

// RebalanceOptions control the Shift Rebalancing pass.
type RebalanceOptions struct {
	// MaxIterations bounds the rewrite fixpoint; zero means 4n+64 for an
	// n-statement program (a safety valve: rounds normally stop long
	// before via the no-change exit).
	MaxIterations int
}

// RebalanceResult reports what the pass did.
type RebalanceResult struct {
	// Rewrites counts applied operand rewrites.
	Rewrites int
	// Iterations is how many fixpoint rounds ran.
	Iterations int
}

// Rebalance applies the operand-rewriting transformation of Section 5.2 to
// every straight-line run of the program: for an AND whose one operand is a
// freshly shifted value and whose other operand is topologically shallower,
//
//	(A >> n) & B   →   (A & (B << n)) >> n
//
// moving the shift off the critical path onto the earlier-available
// operand. The rewrite is applied iteratively until a fixpoint. Only
// top-level and straight-line-body runs of assignments are transformed;
// control-flow bodies are processed independently.
//
// Each round applies every profitable rewrite found in one forward scan
// (bookkeeping is updated incrementally), so the round count is bounded
// by the longest def-use chain — not by the rewrite total. ClamAV-class
// group programs run to 10^5 statements; the earlier one-rewrite-per-
// round formulation was quadratic in group size and dominated megaset
// compiles.
func Rebalance(p *ir.Program, opts RebalanceOptions) RebalanceResult {
	if opts.MaxIterations == 0 {
		n := 0
		ir.WalkStmts(p.Stmts, func(ir.Stmt) { n++ })
		opts.MaxIterations = 4*n + 64
	}
	rb := &rebalancer{p: p, scratch: getScratch()}
	// The run-local tables are kept all-clear between runs; start them so.
	rb.defIdx, rb.redef = rb.defIdx[:0], rb.redef[:0]
	var res RebalanceResult
	for round := 0; round < opts.MaxIterations; round++ {
		res.Iterations++
		if _, changed := rb.round(&res); !changed {
			break
		}
	}
	// Rewrites leave the original single-use shifts dead; sweep them.
	rb.eliminateDeadCode(p)
	rb.release()
	return res
}

// rebalancer holds the per-round analysis state in pooled scratch, so a
// round allocates only the statements its rewrites mint. All tables are
// indexed by VarID (dense) and grown in lockstep with NewVar as rewrites mint
// fresh variables:
//
// uses counts every read of a variable program-wide: assignment operands,
// If/While/Guard conditions, and outputs. A shift value is rewritable only
// while uses == 1 (its single use is the AND at hand), which folds the old
// run-local count and external-use check into one.
//
// defIdx/redef are run-local: the defining statement index within the
// current run (-1 outside it) and whether the variable is assigned more than
// once. Entries touched by a run are reset when it ends.
type rebalancer struct {
	p *ir.Program
	*scratch
}

// round runs one fixpoint round — recount global uses and re-record
// definitions, rewrite every run, fuse shift chains — and reports how many
// shifts it fused and whether anything changed.
func (rb *rebalancer) round(res *RebalanceResult) (fused int, changed bool) {
	rb.analyze(rb.p)
	rb.defIdx = grown(rb.defIdx, rb.p.NumVars, -1)
	rb.redef = grown(rb.redef, rb.p.NumVars, false)
	changed = rb.body(&rb.p.Stmts, res)
	fused = rb.fuseShiftChains()
	return fused, changed || fused > 0
}

// body processes one statement list: nested bodies first, then the maximal
// runs of assignments. The runs only record where their pre-statements go;
// one backward pass then splices them all into the body in place (no
// mid-slice insertion, no copy of the body per run or per round beyond
// append's amortized growth), keeping a round linear in body size.
func (rb *rebalancer) body(body *[]ir.Stmt, res *RebalanceResult) bool {
	changed := false
	for _, s := range *body {
		switch x := s.(type) {
		case *ir.If:
			if rb.body(&x.Body, res) {
				changed = true
			}
		case *ir.While:
			if rb.body(&x.Body, res) {
				changed = true
			}
		}
	}
	// The nested bodies are done with the pre-statement list.
	rb.preAt, rb.pre = rb.preAt[:0], rb.pre[:0]
	b := *body
	for i := 0; i < len(b); {
		if _, ok := b[i].(*ir.Assign); !ok {
			i++
			continue
		}
		j := i + 1
		for j < len(b) {
			if _, ok := b[j].(*ir.Assign); !ok {
				break
			}
			j++
		}
		rb.rewriteRun(b[i:j], i, res)
		i = j
	}
	if len(rb.preAt) == 0 {
		return changed
	}
	// Walk backwards moving every statement to its final position, each
	// rewritten AND preceded by its counter and inner statements; the prefix
	// before the first rewrite is already in place.
	n := len(b)
	b = slices.Grow(b, len(rb.pre))[:n+len(rb.pre)]
	w := len(b)
	for r, k := n-1, len(rb.preAt)-1; k >= 0; r-- {
		w--
		b[w] = b[r]
		if int(rb.preAt[k]) == r {
			w -= 2
			b[w], b[w+1] = rb.pre[2*k], rb.pre[2*k+1]
			k--
		}
	}
	*body = b
	return true
}

// rewriteRun rewrites one straight-line run of assignments — stmts, at
// position base of its body — applying every profitable rewrite in a single
// forward scan. The counter/inner pre-statements of each rewrite are queued
// for body's splice.
func (rb *rebalancer) rewriteRun(stmts []ir.Stmt, base int, res *RebalanceResult) {
	run := rb.run[:0]
	for _, s := range stmts {
		run = append(run, s.(*ir.Assign))
	}
	rb.run = run
	for idx, a := range run {
		if rb.defIdx[a.Dst] >= 0 {
			rb.redef[a.Dst] = true
		}
		rb.defIdx[a.Dst] = int32(idx)
	}
	rb.depth = dfg.VarDepthsInto(rb.depth, run, rb.p.NumVars)
	for idx, a := range run {
		bin, ok := a.Expr.(ir.Bin)
		if !ok || bin.Op != ir.OpAnd {
			continue
		}
		if rb.tryRewrite(run, idx, bin.X, bin.Y) || rb.tryRewrite(run, idx, bin.Y, bin.X) {
			rb.preAt = append(rb.preAt, int32(base+idx))
			res.Rewrites++
		}
	}
	// Reset the run-local tables for the next run this round.
	for _, a := range run {
		rb.defIdx[a.Dst] = -1
		rb.redef[a.Dst] = false
	}
}

// tryRewrite rewrites the AND at run[idx] when shiftVar, one of its operands,
// is a shift defined within this run that can move onto other, the second
// operand. Rewriting is only safe when the shifted value has exactly one use
// anywhere in the program: the AND we are rewriting.
func (rb *rebalancer) tryRewrite(run []*ir.Assign, idx int, shiftVar, other ir.VarID) bool {
	sIdx := rb.defIdx[shiftVar]
	if sIdx < 0 || int(sIdx) >= idx || rb.redef[shiftVar] {
		return false
	}
	sh, ok := run[sIdx].Expr.(ir.Shift)
	if !ok {
		return false
	}
	if rb.uses[shiftVar] != 1 {
		return false
	}
	// The new statements read sh.Src and other at this position;
	// their values must equal those at their original reads.
	if rb.redef[other] || rb.redef[sh.Src] {
		return false
	}
	// Profitable when the shift's source is deeper than the other
	// operand: moving the shift to the shallower side shortens the
	// critical path (Section 5.2's x > y condition).
	depth := rb.depth
	if depth[sh.Src] <= depth[other] {
		return false
	}
	// Rewrite: D = (A >> k) & B  →
	//   counter = B << k; inner = A & counter; D = inner >> k.
	// The old shift becomes dead (single use) and is removed by
	// dead-code elimination; the barrier-merge pass later hoists
	// the counter-shift to where B is available.
	a := run[idx]
	counter := rb.p.NewVar()
	inner := rb.p.NewVar()
	a.Expr = ir.Shift{Src: inner, K: sh.K}
	counterDef := &ir.Assign{Dst: counter, Expr: ir.Shift{Src: other, K: -sh.K}}
	innerDef := &ir.Assign{Dst: inner, Expr: ir.Bin{Op: ir.OpAnd, X: sh.Src, Y: counter}}
	rb.pre = append(rb.pre, counterDef, innerDef)
	// Incremental bookkeeping so the scan can keep rewriting: the
	// AND no longer reads shiftVar; inner reads sh.Src and counter;
	// the rewritten assignment reads inner. The fresh variables are
	// deliberately left out of defIdx (they become rewrite sources
	// only on the next round, once positions are rebuilt) but recorded in
	// defOf, which this round's shift fusion reads.
	rb.uses[shiftVar]--
	rb.uses = grown(rb.uses, int(inner)+1, 0)
	rb.defIdx = grown(rb.defIdx, int(inner)+1, -1)
	rb.redef = grown(rb.redef, int(inner)+1, false)
	rb.defOf = grown(rb.defOf, int(inner)+1, nil)
	rb.uses[sh.Src]++
	rb.uses[counter], rb.defOf[counter] = 1, counterDef
	rb.uses[inner], rb.defOf[inner] = 1, innerDef
	depth = grown(depth, int(inner)+1, 0)
	rb.depth = depth
	depth[counter] = depth[other] + 1
	depth[inner] = max(depth[sh.Src], depth[counter]) + 1
	depth[a.Dst] = depth[inner] + 1
	return true
}

// fuseShiftChains composes same-direction shift pairs: a single-use
// X = A >> a feeding Y = X >> b becomes Y = A >> (a+b) (and likewise for
// lookbacks). This is the "merged after the last AND" step of Figure 8's
// second iteration; it is exact on bounded streams only for same-sign
// shifts, so mixed directions are left alone.
func (rb *rebalancer) fuseShiftChains() int {
	def := rb.defOf
	fused := 0
	ir.WalkStmts(rb.p.Stmts, func(s ir.Stmt) {
		a, ok := s.(*ir.Assign)
		if !ok {
			return
		}
		outer, ok := a.Expr.(ir.Shift)
		if !ok {
			return
		}
		innerDef := def[outer.Src]
		if innerDef == nil {
			return
		}
		inner, ok := innerDef.Expr.(ir.Shift) // never when outer.Src is redefined
		if !ok || def[inner.Src] == redefined {
			return
		}
		if (inner.K > 0) != (outer.K > 0) {
			return // mixed directions do not compose exactly
		}
		// Retargeting is always sound: the inner shift stays for any
		// other users and dead-code elimination removes it if unused.
		a.Expr = ir.Shift{Src: inner.Src, K: inner.K + outer.K}
		fused++
	})
	return fused
}

// Bits of scratch.mark, per variable with a single definition.
const (
	markPinned = 1 << iota // defined in a body containing guards
	markDead
)

// eliminateDeadCode removes assignments whose results are never read
// (transitively), keeping outputs, conditions and guard sources alive.
// It returns the number of statements removed. The transitive closure is
// computed with a worklist over use counts — one pass regardless of dead-
// chain depth — instead of sweeping to a fixpoint.
func (s *scratch) eliminateDeadCode(p *ir.Program) int {
	uses, defOf := s.analyze(p)
	s.mark = grown(s.mark[:0], p.NumVars, 0)
	mark := s.mark
	// Assignments in a body containing guards are pinned: removing them
	// would desynchronize guard skip counts.
	var markPinnedIn func(body []ir.Stmt)
	markPinnedIn = func(body []ir.Stmt) {
		hasGuard := false
		for _, st := range body {
			if _, ok := st.(*ir.Guard); ok {
				hasGuard = true
				break
			}
		}
		for _, st := range body {
			switch x := st.(type) {
			case *ir.Assign:
				if hasGuard {
					mark[x.Dst] |= markPinned
				}
			case *ir.If:
				markPinnedIn(x.Body)
			case *ir.While:
				markPinnedIn(x.Body)
			}
		}
	}
	markPinnedIn(p.Stmts)

	// A variable assigned more than once (loop-carried) is kept
	// conservatively: its assignments may feed each other. One assigned once
	// names its assignment, so the dead set is a mark on the variable.
	removable := func(v ir.VarID) bool {
		return uses[v] == 0 && defOf[v] != nil && defOf[v] != redefined && mark[v] == 0
	}
	stack := s.stack[:0]
	for v := 0; v < p.NumVars; v++ {
		if removable(ir.VarID(v)) {
			stack = append(stack, ir.VarID(v))
		}
	}
	var buf [2]ir.VarID
	dead := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mark[v]&markDead != 0 {
			continue
		}
		mark[v] |= markDead
		dead++
		for _, u := range ir.OperandsInto(defOf[v].Expr, &buf) {
			uses[u]--
			if removable(u) {
				stack = append(stack, u)
			}
		}
	}
	s.stack = stack
	if dead > 0 {
		sweepDead(&p.Stmts, mark)
	}
	return dead
}

// sweepDead drops the dead assignments from every body. Pinned (guarded)
// assignments were never marked, so guard skip counts stay aligned.
func sweepDead(body *[]ir.Stmt, mark []uint8) {
	kept := (*body)[:0]
	for _, s := range *body {
		switch x := s.(type) {
		case *ir.Assign:
			if mark[x.Dst]&markDead != 0 {
				continue
			}
		case *ir.If:
			sweepDead(&x.Body, mark)
		case *ir.While:
			sweepDead(&x.Body, mark)
		}
		kept = append(kept, s)
	}
	*body = kept
}
