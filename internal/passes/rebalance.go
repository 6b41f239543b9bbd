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

// RebalanceOptions is empty; the type stays for the pass's callers.
type RebalanceOptions struct{}

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
// by the longest def-use chain — not by the rewrite total; 4n+64 rounds for
// an n-statement program is a safety valve. A round walks live code only:
// the shifts its rewrites orphan leave their bodies (liftOrphans).
func Rebalance(p *ir.Program, _ RebalanceOptions) RebalanceResult {
	n := 0
	ir.WalkStmts(p.Stmts, func(ir.Stmt) { n++ })
	rb := newRebalancer(p, getScratch())
	var res RebalanceResult
	for round := 0; round < 4*n+64; round++ {
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

// rebalancer holds the analysis state in pooled scratch, so a round allocates
// only the statements its rewrites mint. All tables are indexed by VarID and
// grown in lockstep with NewVar as rewrites mint fresh variables.
//
// uses (scratch.analyze, plus the reads of lifted orphans) is counted once per
// call and kept current by every rewrite and fusion. A shift value is
// rewritable only while uses == 1 (its single use is the AND at hand), which
// folds the old run-local count and external-use check into one.
type rebalancer struct {
	p *ir.Program
	*scratch
}

func newRebalancer(p *ir.Program, s *scratch) *rebalancer {
	s.analyze(p)
	// The run-local tables are kept all-clear between runs; start them so.
	s.defIdx = grown(s.defIdx[:0], p.NumVars, -1)
	s.redef = grown(s.redef[:0], p.NumVars, false)
	s.orphanReads, s.offered = grown(s.orphanReads[:0], 2*p.NumVars, 0), s.offered[:0]
	return &rebalancer{p: p, scratch: s}
}

// round runs one fixpoint round — rewrite every run, fuse shift chains — and
// reports how many shifts it fused and whether anything changed.
func (rb *rebalancer) round(res *RebalanceResult) (fused int, changed bool) {
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
	if !holdsGuard(*body) {
		*body = rb.liftOrphans(*body)
	}
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
	rb.orphanReads = grown(rb.orphanReads, 2*int(inner)+2, 0)
	rb.uses[sh.Src]++
	rb.uses[counter], rb.defOf[counter] = 1, counterDef
	rb.uses[inner], rb.defOf[inner] = 1, innerDef
	depth = grown(depth, int(inner)+1, 0)
	rb.depth = depth
	depth[counter] = depth[other] + 1
	depth[inner] = max(depth[sh.Src], depth[counter]) + 1
	depth[a.Dst] = depth[inner] + 1
	// a.Dst's definition turned into a shift: offer the orphans reading it.
	rb.offered = append(rb.offered, readKey(a.Dst, sh.K))
	return true
}

// readKey indexes orphanReads: variable v as read by a shift in k's direction.
func readKey(v ir.VarID, k int) int32 { return 2*int32(v) + int32(uint64(k)>>63) }

// liftOrphans takes the unread single-definition shifts out of a guard-free
// body. What is left of one is its read of its source, still counted in uses
// and, by direction, in orphanReads, which fusion keeps retargeting: dropped
// before the fixpoint, a counter shift becomes a single-use shiftVar and extra
// mixed-direction rewrites fire. Nothing else about it matters — a variable
// without reads never gets one — so rounds need not walk it.
func (rb *rebalancer) liftOrphans(b []ir.Stmt) []ir.Stmt {
	return slices.DeleteFunc(b, func(s ir.Stmt) bool {
		a, ok := s.(*ir.Assign)
		if !ok || rb.uses[a.Dst] != 0 || rb.defOf[a.Dst] != a {
			return false
		}
		sh, ok := a.Expr.(ir.Shift)
		if ok {
			key := readKey(sh.Src, sh.K)
			rb.orphanReads[key]++
			rb.offered = append(rb.offered, key)
		}
		return ok
	})
}

// fuseShiftChains composes same-direction shift pairs: a single-use
// X = A >> a feeding Y = X >> b becomes Y = A >> (a+b) (and likewise for
// lookbacks). This is the "merged after the last AND" step of Figure 8's
// second iteration; it is exact on bounded streams only for same-sign
// shifts, so mixed directions are left alone. Retargeting is always sound:
// the inner shift stays for any other users and is orphaned if unused.
// Live statements go first, in program order, then the orphan reads on offer:
// nothing reads an orphan, so when it composes changes nothing else, and the
// orphans of one source and direction compose alike, so they move as a count.
func (rb *rebalancer) fuseShiftChains() int {
	fused := 0
	ir.WalkStmts(rb.p.Stmts, func(s ir.Stmt) {
		a, ok := s.(*ir.Assign)
		if !ok {
			return
		}
		if outer, ok := a.Expr.(ir.Shift); ok {
			if inner, ok := rb.retarget(outer.Src, outer.K, 1); ok {
				a.Expr = ir.Shift{Src: inner.Src, K: inner.K + outer.K}
				fused++
			}
		}
	})
	offered := rb.offered
	rb.offered = offered[:0]
	for _, key := range offered {
		n, src := rb.orphanReads[key], ir.VarID(key>>1)
		if n == 0 {
			continue
		}
		if inner, ok := rb.retarget(src, 1-2*int(key&1), n); ok {
			// Offered again next round, as the statements would be walked again.
			to := readKey(inner.Src, inner.K)
			rb.orphanReads[key] = 0
			rb.orphanReads[to] += n
			rb.offered = append(rb.offered, to)
			fused += int(n)
		}
	}
	return fused
}

// retarget returns the shift defining src when a shift of src in k's direction
// composes with it, and moves the n reads of src being composed onto its source.
func (rb *rebalancer) retarget(src ir.VarID, k int, n int32) (ir.Shift, bool) {
	def := rb.defOf
	if def[src] == nil {
		return ir.Shift{}, false
	}
	inner, ok := def[src].Expr.(ir.Shift) // never when src is redefined
	// Mixed directions do not compose exactly.
	if !ok || def[inner.Src] == redefined || (inner.K > 0) != (k > 0) {
		return inner, false
	}
	rb.uses[src] -= n
	rb.uses[inner.Src] += n
	return inner, true
}

// A body that holdsGuard keeps every statement: skip counts must stay aligned.
func holdsGuard(body []ir.Stmt) bool {
	return slices.ContainsFunc(body, func(s ir.Stmt) bool { _, ok := s.(*ir.Guard); return ok })
}

// Bits of scratch.mark, per variable with a single definition.
const (
	markPinned = 1 << iota // defined in a body containing guards
	markDead
)

// eliminateDeadCode removes assignments whose results are never read
// (transitively), keeping outputs, conditions and guard sources alive.
// The transitive closure is computed with a worklist over use counts — one
// pass regardless of dead-chain depth — instead of sweeping to a fixpoint.
func (s *scratch) eliminateDeadCode(p *ir.Program) {
	uses, defOf := s.analyze(p)
	s.mark = grown(s.mark[:0], p.NumVars, 0)
	mark := s.mark
	var markPinnedIn func(body []ir.Stmt)
	markPinnedIn = func(body []ir.Stmt) {
		hasGuard := holdsGuard(body)
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
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mark[v]&markDead != 0 {
			continue
		}
		mark[v] |= markDead
		for _, u := range ir.OperandsInto(defOf[v].Expr, &buf) {
			uses[u]--
			if removable(u) {
				stack = append(stack, u)
			}
		}
	}
	s.stack = stack
	s.sweep(p)
}

// sweep drops the dead assignments from every body — pinned ones were never
// marked — and renames the variables densely in order of first appearance
// (first definition, in a valid program), leaving their count in NumVars:
// Rebalance alone mints variables after lowering, two a rewrite, most of them
// dead by now, and everything downstream sizes its tables by NumVars.
func (s *scratch) sweep(p *ir.Program) {
	id := grown(s.defIdx[:0], p.NumVars, -1)
	s.defIdx = id
	n := 0
	re := func(v ir.VarID) ir.VarID {
		if id[v] < 0 {
			id[v] = int32(n)
			n++
		}
		return ir.VarID(id[v])
	}
	var sweepBody func(body *[]ir.Stmt)
	sweepBody = func(body *[]ir.Stmt) {
		kept := (*body)[:0]
		for _, st := range *body {
			switch x := st.(type) {
			case *ir.Assign:
				if s.mark[x.Dst]&markDead != 0 {
					continue
				}
				switch e := x.Expr.(type) {
				case ir.Copy:
					x.Expr = ir.Copy{Src: re(e.Src)}
				case ir.Not:
					x.Expr = ir.Not{Src: re(e.Src)}
				case ir.Bin:
					x.Expr = ir.Bin{Op: e.Op, X: re(e.X), Y: re(e.Y)}
				case ir.Shift:
					x.Expr = ir.Shift{Src: re(e.Src), K: e.K}
				case ir.Add:
					x.Expr = ir.Add{X: re(e.X), Y: re(e.Y)}
				case ir.StarThru:
					x.Expr = ir.StarThru{M: re(e.M), C: re(e.C)}
				}
				x.Dst = re(x.Dst)
			case *ir.If:
				x.Cond = re(x.Cond)
				sweepBody(&x.Body)
			case *ir.While:
				x.Cond = re(x.Cond)
				sweepBody(&x.Body)
			case *ir.Guard:
				x.Cond = re(x.Cond)
			}
			kept = append(kept, st)
		}
		*body = kept
	}
	sweepBody(&p.Stmts)
	for i := range p.Outputs {
		p.Outputs[i].Var = re(p.Outputs[i].Var)
	}
	p.NumVars = n
}
