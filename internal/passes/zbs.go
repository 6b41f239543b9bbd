package passes

import (
	"slices"

	"bitgen/internal/dfg"
	"bitgen/internal/ir"
)

// ZBSOptions control Zero Block Skipping guard insertion.
type ZBSOptions struct {
	// Interval is the spacing of additional guards along a zero path
	// (Section 6's interval size). Zero means 8, the paper's default.
	Interval int
	// MinSkip is the minimum number of skipped statements for a guard to
	// be worth its check; zero means 2.
	MinSkip int
}

// ZBSResult reports what the pass did.
type ZBSResult struct {
	// PathsFound is the number of zero paths discovered.
	PathsFound int
	// GuardsInserted is the number of guards placed.
	GuardsInserted int
	// Rejected counts insertion attempts that failed validation (a
	// skipped non-path instruction defines a variable used outside the
	// skipped range).
	Rejected int
}

// InsertGuards implements Section 6: it finds zero paths in every
// straight-line run, validates candidate guard positions, and inserts
// conditional skips at the path head and every Interval instructions along
// the path. When a guard triggers at runtime (its condition block is
// all-zero), the executor skips the covered statements and zeroes their
// destinations — sound because on-path values are guaranteed zero and
// validated non-path values are dead outside the range.
func InsertGuards(p *ir.Program, opts ZBSOptions) ZBSResult {
	if opts.Interval == 0 {
		opts.Interval = 8
	}
	if opts.MinSkip == 0 {
		opts.MinSkip = 2
	}
	var res ZBSResult
	s := getScratch()
	// Every textual use in the program plus outputs, counted once up front:
	// a skipped definition escapes its range when a use lies outside it.
	s.countUses(p)
	s.reads = grown(s.reads[:0], p.NumVars, runReads{})
	s.guardBody(p, &p.Stmts, opts, &res)
	s.release()
	return res
}

// insertion describes one guard to place: right after body position after,
// skipping through body position last, conditioned on cond.
type insertion struct {
	after, last int32
	cond        ir.VarID
}

func (s *scratch) guardBody(p *ir.Program, body *[]ir.Stmt, opts ZBSOptions, res *ZBSResult) {
	for _, st := range *body {
		if x, ok := st.(*ir.While); ok {
			s.guardBody(p, &x.Body, opts, res)
		}
	}
	// The nested bodies are done with the insertion list.
	s.inserts = s.inserts[:0]
	b := *body
	for i := 0; i < len(b); i++ {
		start := i
		run := s.run[:0]
		for ; i < len(b); i++ {
			a, ok := b[i].(*ir.Assign)
			if !ok {
				break
			}
			run = append(run, a)
		}
		s.run = run
		if len(run) > 1 {
			s.planRunGuards(run, start, p.NumVars, opts, res)
		}
	}
	if len(s.inserts) == 0 {
		return
	}
	// At most one guard follows a statement (planRunGuards takes an anchor
	// once), so a per-position table orders the insertions, planned path by
	// path, by where they go.
	n := len(b)
	s.guardAt = grown(s.guardAt[:0], n, -1)
	for k, ins := range s.inserts {
		s.guardAt[ins.after] = int32(k)
	}
	// Walk backwards moving every statement to its final position in place,
	// each anchor followed by its guard. w is where the next statement lands;
	// a guard's skip count is the distance to its range's last statement,
	// whose final position the walk has already fixed (it lies after the
	// anchor) and left in s.guardAt.
	b = slices.Grow(b, len(s.inserts))[:n+len(s.inserts)]
	w := len(b)
	for r := n - 1; w > r+1; r-- {
		k := s.guardAt[r]
		if k >= 0 {
			w--
			ins := s.inserts[k]
			b[w] = &ir.Guard{Cond: ins.cond, Skip: int(s.guardAt[ins.last]) - w}
			res.GuardsInserted++
		}
		w--
		b[w] = b[r]
		s.guardAt[r] = int32(w)
	}
	*body = b
}

// planRunGuards finds valid guard insertions for one straight-line run that
// starts at position base of its body, appending them to s.inserts. The
// per-variable read summary and the on-path stamps are built once per run /
// per path so candidate validation never allocates — at ClamAV megaset
// scale a run holds the whole group program and every AND chain is a path.
func (s *scratch) planRunGuards(run []*ir.Assign, base, numVars int, opts ZBSOptions, res *ZBSResult) {
	paths := dfg.ZeroPaths(run, numVars)
	res.PathsFound += len(paths)
	// Where the run reads each variable. Reads elsewhere — another body, a
	// condition, an output — show as a shortfall against s.uses.
	var buf [2]ir.VarID
	for i, a := range run {
		for _, v := range ir.OperandsInto(a.Expr, &buf) {
			r := &s.reads[v]
			if r.n == 0 {
				r.first = int32(i)
			}
			r.n++
			r.last = int32(i)
		}
	}
	s.taken = grown(s.taken[:0], len(run), false)
	s.onPath = grown(s.onPath[:0], len(run), 0) // stamp = path ordinal + 1
	onPath := s.onPath
	for pi, path := range paths {
		stamp := int32(pi + 1)
		endIdx := path.Stmts[len(path.Stmts)-1]
		onPath[path.Head] = stamp
		for _, idx := range path.Stmts {
			onPath[idx] = stamp
		}
		// Candidates: the path head, then every Interval statements along it.
		for j := 0; j < len(path.Stmts); j += opts.Interval {
			condPos := path.Head
			if j > 0 {
				condPos = path.Stmts[j-1]
			}
			// Advance past rejections, as the paper's algorithm does.
			for condPos < endIdx {
				if s.validSkipRange(run, condPos+1, endIdx, stamp) {
					break
				}
				res.Rejected++
				next := -1
				for _, idx := range path.Stmts {
					if idx > condPos && idx < endIdx {
						next = idx
						break
					}
				}
				if next == -1 {
					condPos = endIdx // no valid start: give up on this candidate
					break
				}
				condPos = next
			}
			if condPos >= endIdx || endIdx-condPos < opts.MinSkip {
				continue
			}
			if s.taken[condPos] {
				continue
			}
			s.taken[condPos] = true
			s.inserts = append(s.inserts, insertion{after: int32(base + condPos), last: int32(base + endIdx), cond: run[condPos].Dst})
		}
	}
	// Reset the run-local summary for the next run.
	for _, a := range run {
		for _, v := range ir.OperandsInto(a.Expr, &buf) {
			s.reads[v].n = 0
		}
	}
}

// validSkipRange checks the paper's rejection rule: every non-path
// statement inside the candidate range must not define a variable used
// outside the range — every read of it is in this run, between from and to.
func (s *scratch) validSkipRange(run []*ir.Assign, from, to int, stamp int32) bool {
	for i := from; i <= to; i++ {
		if s.onPath[i] == stamp {
			continue // on-path values are provably zero when skipped
		}
		v := run[i].Dst
		r := s.reads[v]
		if r.n != s.uses[v] {
			return false // read by an output, a condition or another body
		}
		if r.n > 0 && (int(r.first) < from || int(r.last) > to) {
			return false
		}
	}
	return true
}
