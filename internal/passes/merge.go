package passes

import (
	"slices"

	"bitgen/internal/ir"
)

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
	s := getScratch()
	s.defSeq = grown(s.defSeq, p.NumVars, -1)
	s.inRun = grown(s.inRun, p.NumVars, 0)
	s.pend = grown(s.pend, p.NumVars, 0)
	s.mergeBody(p.Stmts, opts.MergeSize, sched)
	s.release()
	p.Barriers = sched
	return sched
}

func (s *scratch) mergeBody(body []ir.Stmt, size int, sched *ir.BarrierSchedule) {
	for _, st := range body {
		if x, ok := st.(*ir.While); ok {
			s.mergeBody(x.Body, size, sched)
		}
	}
	// Process maximal runs of assignments. Guards end a run: moving a
	// statement across a guard would change what the guard skips.
	start := 0
	for i := 0; i <= len(body); i++ {
		isAssign := false
		if i < len(body) {
			_, isAssign = body[i].(*ir.Assign)
		}
		if isAssign {
			continue
		}
		if i > start {
			s.mergeRun(body[start:i], size, sched)
		}
		start = i + 1
	}
}

// Bits of scratch.inRun: the current run defines, or reads, the variable.
const (
	defInRun uint8 = 1 << iota
	readInRun
)

// member is a shift merged upward into the barrier group led by the
// statement at position leader of the run's new order.
type member struct {
	leader int32
	a      *ir.Assign
}

// runMerge is mergeRun's placement state; its tables are the scratch's.
type runMerge struct {
	s    *scratch
	size int
	seq  int32 // placement sequence number of the next statement placed
	// The current barrier group: its leader's position in s.order and
	// sequence number, and how many shifts it holds (0: no group yet).
	leader, leaderSeq int32
	n                 int
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
// cannot read the shift's value. Every table entry the run sets is back at
// its fill value when it returns.
func (s *scratch) mergeRun(body []ir.Stmt, size int, sched *ir.BarrierSchedule) {
	orig := s.run[:0]
	for _, st := range body {
		orig = append(orig, st.(*ir.Assign))
	}
	s.run = orig
	var buf [2]ir.VarID
	defer func() {
		for _, a := range orig {
			for _, v := range ir.OperandsInto(a.Expr, &buf) {
				s.inRun[v] = 0
			}
			s.inRun[a.Dst], s.defSeq[a.Dst] = 0, -1
		}
	}()
	// Reject runs with variable redefinition: reordering is only safe in
	// single-assignment runs (the lowering emits SSA-shaped straight-line
	// code except for loop-carried variables, which live in loop bodies).
	for _, a := range orig {
		if s.inRun[a.Dst]&defInRun != 0 {
			return
		}
		s.inRun[a.Dst] |= defInRun
	}

	// Deferred scheduling: shifts are held back until their first use,
	// then either merged upward into the current barrier group (when
	// their operands were already available at the group's position) or
	// placed as a new group leader — the paper's greedy algorithm.
	// Shifts with no use inside the run (output-producing shifts, values
	// consumed by later segments) are NOT deferred: moving them to the
	// run's end would stretch zero paths across unrelated regexes'
	// code and poison ZBS validation.
	for _, a := range orig {
		for _, v := range ir.OperandsInto(a.Expr, &buf) {
			s.inRun[v] |= readInRun
		}
	}
	s.order, s.members = s.order[:0], s.members[:0]
	m := runMerge{s: s, size: size}
	for i, a := range orig {
		if isShiftAssign(a) && s.inRun[a.Dst]&readInRun != 0 {
			s.pend[a.Dst] = int32(i + 1) // deferred shifts by destination
			continue
		}
		for _, v := range ir.OperandsInto(a.Expr, &buf) {
			if dep := s.pend[v]; dep != 0 {
				m.flush(orig[dep-1])
			}
		}
		if isShiftAssign(a) {
			// Un-deferred shift: schedule it here, still merging with the
			// current group when possible.
			m.flush(a)
			continue
		}
		s.order = append(s.order, a)
		m.place(a)
	}
	// Should not happen (every deferred shift has an in-run use), but
	// flush defensively in original order.
	for _, a := range orig {
		if s.pend[a.Dst] != 0 && isShiftAssign(a) {
			m.flush(a)
		}
	}

	final, rest := s.final[:0], s.members
	for i, a := range s.order {
		final = append(final, a)
		for ; len(rest) > 0 && rest[0].leader == int32(i); rest = rest[1:] {
			final = append(final, rest[0].a)
		}
	}
	s.final = final
	for i, a := range final {
		body[i] = a
	}
	s.groupAdjacent(final, size, sched)
}

func (m *runMerge) place(a *ir.Assign) {
	m.s.defSeq[a.Dst] = m.seq
	m.seq++
}

// operandsBefore reports whether every operand of a was placed strictly
// before the current group's leader (external definitions count as
// before). Sequence order matches position order relative to any leader:
// merged members are placed after their leader both in time and in the
// final splice.
func (m *runMerge) operandsBefore(a *ir.Assign) bool {
	var buf [2]ir.VarID
	for _, v := range ir.OperandsInto(a.Expr, &buf) {
		if m.s.defSeq[v] >= m.leaderSeq {
			return false
		}
	}
	return true
}

// flush places the deferred shift a, the deferred shifts it reads first:
// merged into the current group when it has room and a's operands precede
// its leader, else as the leader of a new group.
func (m *runMerge) flush(a *ir.Assign) {
	s := m.s
	s.pend[a.Dst] = 0
	var buf [2]ir.VarID
	for _, v := range ir.OperandsInto(a.Expr, &buf) {
		if dep := s.pend[v]; dep != 0 {
			m.flush(s.run[dep-1])
		}
	}
	if m.n > 0 && m.n < m.size && m.operandsBefore(a) {
		s.members = append(s.members, member{leader: m.leader, a: a})
		m.place(a)
		m.n++
		return
	}
	s.order = append(s.order, a)
	m.leader, m.leaderSeq, m.n = int32(len(s.order)-1), m.seq, 1
	m.place(a)
}

func isShiftAssign(a *ir.Assign) bool {
	_, ok := a.Expr.(ir.Shift)
	return ok
}

// groupAdjacent records runs of adjacent shifts as barrier groups, chunked
// by the merge size, and counts the shared-memory copies saved by duplicate
// sources within a group. The groups of one run share one backing array.
func (s *scratch) groupAdjacent(final []*ir.Assign, size int, sched *ir.BarrierSchedule) {
	spans, total, n := s.spans[:0], 0, 0
	closeGroup := func(end int) {
		if n >= 2 {
			spans = append(spans, [2]int32{int32(end - n), int32(end)})
			total += n
		}
		n = 0
	}
	for i, a := range final {
		if !isShiftAssign(a) {
			closeGroup(i)
			continue
		}
		if n == size {
			closeGroup(i)
		}
		n++
	}
	closeGroup(len(final))
	s.spans = spans
	backing := make([]*ir.Assign, total)
	for _, sp := range spans {
		g := backing[: sp[1]-sp[0] : sp[1]-sp[0]]
		backing = backing[len(g):]
		copy(g, final[sp[0]:sp[1]])
		sched.Groups = append(sched.Groups, g)
		for j, a := range g {
			src := a.Expr.(ir.Shift).Src
			if slices.ContainsFunc(g[:j], func(b *ir.Assign) bool { return b.Expr.(ir.Shift).Src == src }) {
				sched.DedupedCopies++
			}
		}
	}
}
