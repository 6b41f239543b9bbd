package passes

import "bitgen/internal/ir"

// MergeOptions control barrier merging.
type MergeOptions struct {
	// MergeSize is the maximum number of SHIFT instructions sharing one
	// barrier pair (the paper's tunable "merge size"; its effective value
	// is bounded by shared-memory capacity, which the engine enforces).
	// Zero means 8, the paper's default.
	MergeSize int
}

// MergeBarriers implements Section 5.3: it schedules SHIFT instructions as
// early as their operands allow, co-locates groups of up to MergeSize
// shifts, and records the groups in the program's BarrierSchedule so the
// interleaved executor charges one barrier pair per group. Shifts of the
// same source within a group share a single shared-memory copy
// (redundant-copy elimination). Statements are physically reordered; the
// transformation preserves semantics (dependencies are respected).
func MergeBarriers(p *ir.Program, opts MergeOptions) *ir.BarrierSchedule {
	if opts.MergeSize == 0 {
		opts.MergeSize = 8
	}
	sched := &ir.BarrierSchedule{MergeSize: opts.MergeSize}
	mergeBody(p, &p.Stmts, opts, sched)
	p.Barriers = sched
	return sched
}

func mergeBody(p *ir.Program, body *[]ir.Stmt, opts MergeOptions, sched *ir.BarrierSchedule) {
	for _, s := range *body {
		if x, ok := s.(*ir.While); ok {
			mergeBody(p, &x.Body, opts, sched)
		}
	}
	// Process maximal runs of assignments. Guards end a run: moving a
	// statement across a guard would change what the guard skips.
	start := 0
	for i := 0; i <= len(*body); i++ {
		isAssign := false
		if i < len(*body) {
			_, isAssign = (*body)[i].(*ir.Assign)
		}
		if isAssign {
			continue
		}
		if i > start {
			mergeRun(p, body, start, i, opts, sched)
		}
		start = i + 1
	}
}

// mergeRun schedules the shifts of one straight-line run as early as their
// operands allow (clustering them with shifts already placed there), then
// groups consecutive shifts up to the merge size, as in Figure 9.
//
// Placement is tracked with monotonically increasing sequence numbers and
// merged shifts are buffered per group leader, then spliced in one final
// rebuild. (Physically inserting into the middle of the order and fixing
// every later position up was quadratic in run length — the dominant
// compile cost on 10^5-statement ClamAV-class group programs.) The
// deferred splice is sound because a shift is flushed at its first use:
// everything already placed after the leader predates that use and so
// cannot read the shift's value.
func mergeRun(p *ir.Program, body *[]ir.Stmt, start, end int, opts MergeOptions, sched *ir.BarrierSchedule) {
	orig := make([]*ir.Assign, 0, end-start)
	for _, s := range (*body)[start:end] {
		orig = append(orig, s.(*ir.Assign))
	}
	// Reject runs with variable redefinition: reordering is only safe in
	// single-assignment runs (the lowering emits SSA-shaped straight-line
	// code except for loop-carried variables, which live in loop bodies).
	seenDef := make([]bool, p.NumVars)
	for _, a := range orig {
		if seenDef[a.Dst] {
			return
		}
		seenDef[a.Dst] = true
	}

	// Deferred scheduling: shifts are held back until their first use,
	// then either merged upward into the current barrier group (when
	// their operands were already available at the group's position) or
	// placed as a new group leader — the paper's greedy algorithm.
	// Shifts with no use inside the run (output-producing shifts, values
	// consumed by later segments) are NOT deferred: moving them to the
	// run's end would stretch zero paths across unrelated regexes'
	// code and poison ZBS validation.
	var buf [2]ir.VarID
	usedInRun := make([]bool, p.NumVars)
	for _, a := range orig {
		for _, v := range ir.OperandsInto(a.Expr, &buf) {
			usedInRun[v] = true
		}
	}
	newOrder := make([]*ir.Assign, 0, len(orig))
	members := make(map[*ir.Assign][]*ir.Assign) // group leader → merged shifts
	definedSeq := make([]int32, p.NumVars)       // -1 = external or not yet placed
	for i := range definedSeq {
		definedSeq[i] = -1
	}
	seq := int32(0)
	place := func(a *ir.Assign) {
		definedSeq[a.Dst] = seq
		seq++
	}
	pend := make([]*ir.Assign, p.NumVars) // deferred shifts by destination
	type group struct {
		leader    *ir.Assign
		leaderSeq int32
		size      int
	}
	var cur *group
	// operandsBefore reports whether every operand was placed strictly
	// before the group leader (external definitions count as before).
	// Sequence order matches position order relative to any leader:
	// merged members are placed after their leader both in time and in
	// the final splice.
	operandsBefore := func(a *ir.Assign, leaderSeq int32) bool {
		for _, v := range ir.OperandsInto(a.Expr, &buf) {
			if definedSeq[v] >= leaderSeq {
				return false
			}
		}
		return true
	}
	var flushShift func(a *ir.Assign)
	flushShift = func(a *ir.Assign) {
		pend[a.Dst] = nil
		for _, v := range ir.OperandsInto(a.Expr, &buf) {
			if dep := pend[v]; dep != nil {
				flushShift(dep)
			}
		}
		if cur != nil && cur.size < opts.MergeSize && operandsBefore(a, cur.leaderSeq) {
			members[cur.leader] = append(members[cur.leader], a)
			place(a)
			cur.size++
			return
		}
		newOrder = append(newOrder, a)
		place(a)
		cur = &group{leader: a, leaderSeq: definedSeq[a.Dst], size: 1}
	}
	for _, a := range orig {
		if _, isShift := a.Expr.(ir.Shift); isShift && usedInRun[a.Dst] {
			pend[a.Dst] = a
			continue
		}
		for _, v := range ir.OperandsInto(a.Expr, &buf) {
			if dep := pend[v]; dep != nil {
				flushShift(dep)
			}
		}
		if isShiftAssign(a) {
			// Un-deferred shift: schedule it here, still merging with the
			// current group when possible.
			flushShift(a)
			continue
		}
		newOrder = append(newOrder, a)
		place(a)
	}
	// Should not happen (every deferred shift has an in-run use), but
	// flush defensively in original order.
	for _, a := range orig {
		if pend[a.Dst] != nil && isShiftAssign(a) {
			flushShift(a)
		}
	}

	final := newOrder[:0:0]
	for _, a := range newOrder {
		final = append(final, a)
		final = append(final, members[a]...)
	}
	for i, a := range final {
		(*body)[start+i] = a
	}

	groupAdjacent(final, opts, sched)
}

func isShiftAssign(a *ir.Assign) bool {
	_, ok := a.Expr.(ir.Shift)
	return ok
}

// groupAdjacent records runs of adjacent shifts as barrier groups.
func groupAdjacent(newOrder []*ir.Assign, opts MergeOptions, sched *ir.BarrierSchedule) {
	// Group consecutive shifts, chunked by the merge size; count the
	// shared-memory copies saved by duplicate sources within a group.
	var cur []*ir.Assign
	flushGroup := func() {
		if len(cur) >= 2 {
			sched.Groups = append(sched.Groups, cur)
			srcs := make(map[ir.VarID]bool)
			for _, m := range cur {
				if sh, ok := m.Expr.(ir.Shift); ok {
					if srcs[sh.Src] {
						sched.DedupedCopies++
					}
					srcs[sh.Src] = true
				}
			}
		}
		cur = nil
	}
	for _, a := range newOrder {
		if _, isShift := a.Expr.(ir.Shift); isShift {
			if len(cur) == opts.MergeSize {
				flushGroup()
			}
			cur = append(cur, a)
			continue
		}
		flushGroup()
	}
	flushGroup()
}
