// Package passes implements BitGen's program transformations: Shift
// Rebalancing with barrier merging (Section 5) and Zero Block Skipping
// guard insertion (Section 6). All passes preserve whole-stream semantics;
// the test suite verifies transformed programs against the interpreter.
// Rebalance runs its fixpoint on one record per statement — an assignment's
// ir.Expr with its destination, a control statement's condition and body —
// indexed by body instead of linked by pointers, and writes the program back
// once; MergeBarriers and InsertGuards work on the statement tree.
package passes

import (
	"math"
	"slices"

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
	s := getScratch()
	res := s.rebalance(p)
	s.release()
	return res
}

func (s *scratch) rebalance(p *ir.Program) RebalanceResult {
	rb := newRebalancer(p, s)
	var res RebalanceResult
	for round := 0; round < 4*len(s.stmts)+64; round++ {
		res.Iterations++
		if _, changed := rb.round(&res); !changed {
			break
		}
	}
	// Rewrites leave the original single-use shifts dead; sweep them.
	rb.writeBack(rb.eliminateDeadCode())
	return res
}

// Record kinds past an assignment's ir.Op: kind < kWhile is an assignment.
const (
	kWhile = ir.NumOps + iota
	kGuard
)

// depths gives, per operation, an assignment's depth: inc more than the
// deepest operand its masks keep. Constants, basis reads and StarThru are at
// 0, a Copy as deep as its source.
var depths = [ir.NumOps]struct{ dx, dy, inc int32 }{
	ir.OpAnd: {-1, -1, 1}, ir.OpOr: {-1, -1, 1}, ir.OpXor: {-1, -1, 1}, ir.OpAndNot: {-1, -1, 1},
	ir.OpCopy: {-1, 0, 0}, ir.OpNot: {-1, 0, 1}, ir.OpShift: {-1, 0, 1},
}

// rec is one statement of the work form. An assignment is dst = kind(x, y),
// k its shift distance or basis bit, each an ir.Expr field; a While tests
// dst and runs body x; a Guard tests dst and skips k statements.
type rec struct {
	kind         ir.Op
	dst, x, y, k int32
}

// operands is how many of x, y the record reads.
func (r *rec) operands() int {
	if r.kind >= kWhile {
		return 0
	}
	return r.kind.Arity()
}

// variable is what the rounds know of one variable.
type variable struct {
	uses  int32 // reads program-wide, the lifted orphans' included
	def   int32 // its one defining record, or noDef or redefined
	at    int32 // its defining position in the current run, -1 outside it, or redefinedInRun
	depth int32 // its dataflow depth at the current run's end, 0 outside it
}

// Stand-ins in def for no definition and several; in at for several in the
// current run (past every position, never an earlier definition).
const (
	noDef          = -1
	redefined      = -2
	redefinedInRun = math.MaxInt32
)

var outsideRun = variable{def: noDef, at: -1}

// rebalancer runs the rounds on the work form in pooled scratch: a rewrite
// appends two records, a fusion edits one, and once the scratch has grown to
// the program a round allocates nothing. uses is kept current by every
// rewrite and fusion; a shift value is rewritable only while uses == 1 (its
// single use is the AND at hand).
type rebalancer struct {
	p *ir.Program
	*scratch
}

// newRebalancer converts p into s's work form, the top level as body 0.
func newRebalancer(p *ir.Program, s *scratch) *rebalancer {
	s.recs, s.stmts, s.bodies, s.guarded, s.post = s.recs[:0], s.stmts[:0], s.bodies[:0], s.guarded[:0], s.post[:0]
	s.vars = grown(s.vars[:0], p.NumVars, outsideRun)
	rb := &rebalancer{p: p, scratch: s}
	rb.convert(p.Stmts)
	for _, o := range p.Outputs {
		s.vars[o.Var].uses++
	}
	s.orphanReads, s.offered = grown(s.orphanReads[:0], 2*p.NumVars, 0), s.offered[:0]
	return rb
}

// convert appends list's statements as records, counted, and returns the
// index of the body holding them.
func (rb *rebalancer) convert(list []ir.Stmt) int32 {
	s := rb.scratch
	bi := int32(len(s.bodies))
	s.bodies = slices.Grow(s.bodies, 1)[:bi+1] // a body's list keeps its capacity
	s.bodies[bi] = s.bodies[bi][:0]
	s.guarded = append(s.guarded, false)
	for _, st := range list {
		var r rec
		switch x := st.(type) {
		case *ir.Assign:
			e := x.Expr
			r = rec{kind: e.Op, dst: int32(x.Dst), x: int32(e.X), y: int32(e.Y), k: e.K}
		case *ir.While:
			r = rec{kind: kWhile, dst: int32(x.Cond), x: rb.convert(x.Body)}
		case *ir.Guard:
			r = rec{kind: kGuard, dst: int32(x.Cond), k: int32(x.Skip)}
			s.guarded[bi] = true
		default:
			panic("passes: unknown statement type")
		}
		rb.count(int32(len(s.recs)), &r)
		s.recs = append(s.recs, r)
		s.stmts = append(s.stmts, st)
		s.bodies[bi] = append(s.bodies[bi], int32(len(s.recs)-1))
	}
	s.post = append(s.post, bi)
	return bi
}

// count adds record id's reads to uses and an assignment's definition to def.
func (rb *rebalancer) count(id int32, r *rec) {
	if r.kind >= kWhile {
		rb.vars[r.dst].uses++
		return
	}
	ops := [2]int32{r.x, r.y}
	for _, v := range ops[:r.operands()] {
		rb.vars[v].uses++
	}
	if d := &rb.vars[r.dst].def; *d != noDef {
		*d = redefined
	} else {
		*d = id
	}
}

// round rewrites every run, nested bodies before theirs, fuses shift chains,
// and reports how many shifts it fused and whether anything changed.
func (rb *rebalancer) round(res *RebalanceResult) (fused int, changed bool) {
	before := res.Rewrites
	for _, bi := range rb.post {
		rb.body(bi, res)
	}
	fused = rb.fuseShiftChains(0) + rb.fuseOffered()
	return fused, res.Rewrites > before || fused > 0
}

// body processes the maximal runs of assignments of body bi, whose rewrites
// one backward pass splices into the body in place.
func (rb *rebalancer) body(bi int32, res *RebalanceResult) {
	s := rb.scratch
	s.preAt, s.pre = s.preAt[:0], s.pre[:0]
	b := s.bodies[bi]
	if !s.guarded[bi] {
		b = rb.liftOrphans(b)
	}
	for i := 0; i < len(b); i++ { // the record after a run is no assignment
		if s.recs[b[i]].kind < kWhile {
			i += rb.rewriteRun(b[i:], i, res)
		}
	}
	if len(s.preAt) > 0 {
		// Walk backwards moving every statement to its final position, each
		// rewritten AND preceded by its counter and inner records.
		n := len(b)
		b = slices.Grow(b, 2*len(s.preAt))[:n+2*len(s.preAt)]
		w := len(b)
		for r, k := n-1, len(s.preAt)-1; k >= 0; r-- {
			w--
			b[w] = b[r]
			if int(s.preAt[k]) == r {
				w -= 2
				b[w], b[w+1] = s.pre[k], s.pre[k]+1
				k--
			}
		}
	}
	s.bodies[bi] = b
}

// rewriteRun applies every profitable rewrite in the run of assignment
// records run starts with, at position base of its body, in a single forward
// scan, queueing each rewrite's counter/inner records for body's splice. It
// returns the run's length.
func (rb *rebalancer) rewriteRun(run []int32, base int, res *RebalanceResult) int {
	s := rb.scratch
	// Def positions and depths at the end of the run; outside it depth is 0.
	recs, vars := s.recs, s.vars
	for idx, id := range run {
		r := &recs[id]
		if r.kind >= kWhile {
			run = run[:idx]
			break
		}
		kind := &depths[r.kind]
		d := max(vars[r.x].depth&kind.dx, vars[r.y].depth&kind.dy) + kind.inc
		v := &vars[r.dst]
		if v.at >= 0 {
			v.at = redefinedInRun
		} else {
			v.at = int32(idx)
		}
		v.depth = d
	}
	// Room for the variables the rewrites may mint, two an AND.
	minted := rb.p.NumVars
	s.vars = grown(s.vars, minted+2*len(run), outsideRun)
	s.orphanReads = grown(s.orphanReads, 2*(minted+2*len(run)), 0)
	for idx, id := range run {
		if r := &s.recs[id]; r.kind == ir.OpAnd {
			x, y := r.x, r.y
			if rb.tryRewrite(run, idx, x, y) || rb.tryRewrite(run, idx, y, x) {
				s.preAt = append(s.preAt, int32(base+idx))
				res.Rewrites++
			}
		}
	}
	// Reset the run-local state for the next run.
	for _, id := range run {
		v := &s.vars[s.recs[id].dst]
		v.at, v.depth = -1, 0
	}
	for v := minted; v < rb.p.NumVars; v++ {
		s.vars[v].depth = 0
	}
	return len(run)
}

// tryRewrite rewrites the AND at run[idx] when shiftVar, one of its operands,
// is a shift defined within this run that can move onto other, the second
// operand. Rewriting is only safe when the shifted value has exactly one use
// anywhere in the program: the AND we are rewriting.
func (rb *rebalancer) tryRewrite(run []int32, idx int, shiftVar, other int32) bool {
	s := rb.scratch
	sIdx := s.vars[shiftVar].at // redefinedInRun is past idx
	if sIdx < 0 || int(sIdx) >= idx || s.recs[run[sIdx]].kind != ir.OpShift || s.vars[shiftVar].uses != 1 {
		return false
	}
	// The new statements read src and other here: neither may be redefined.
	// Profitable when src is deeper than other (Section 5.2's x > y): the
	// critical path shortens.
	src, k := s.recs[run[sIdx]].x, s.recs[run[sIdx]].k
	if vs, vo := &s.vars[src], &s.vars[other]; vs.at == redefinedInRun || vo.at == redefinedInRun || vs.depth <= vo.depth {
		return false
	}
	// Rewrite: D = (A >> k) & B  →  counter = B << k; inner = A & counter;
	// D = inner >> k. The old shift is left dead; the barrier-merge pass
	// later hoists the counter-shift to where B is available.
	counter, inner := int32(rb.p.NewVar()), int32(rb.p.NewVar())
	dst := s.recs[run[idx]].dst
	s.recs[run[idx]] = rec{kind: ir.OpShift, dst: dst, x: inner, k: k}
	c := int32(len(s.recs))
	s.recs = append(s.recs,
		rec{kind: ir.OpShift, dst: counter, x: other, k: -k},
		rec{kind: ir.OpAnd, dst: inner, x: src, y: counter})
	s.pre = append(s.pre, c)
	// The fresh variables stay out of at (they become rewrite sources only
	// next round) but are in def, which this round's fusion reads.
	s.vars[shiftVar].uses--
	s.vars[src].uses++
	counterDepth := s.vars[other].depth + 1
	innerDepth := max(s.vars[src].depth, counterDepth) + 1
	s.vars[counter] = variable{uses: 1, def: c, at: -1, depth: counterDepth}
	s.vars[inner] = variable{uses: 1, def: c + 1, at: -1, depth: innerDepth}
	s.vars[dst].depth = innerDepth + 1
	// dst's definition turned into a shift: offer the orphans reading it.
	s.offered = append(s.offered, readKey(dst, k))
	return true
}

// readKey indexes orphanReads: variable v as read by a shift in k's direction.
func readKey(v, k int32) int32 { return 2*v + int32(uint32(k)>>31) }

// liftOrphans takes the unread single-definition shifts out of a guard-free
// body. What is left of one is its read of its source, still counted in uses
// and, by direction, in orphanReads, which fusion keeps retargeting (dropped,
// a counter shift becomes a single-use shiftVar and extra mixed-direction
// rewrites fire); a variable without reads never gets one.
func (rb *rebalancer) liftOrphans(b []int32) []int32 {
	s := rb.scratch
	kept := 0
	for _, id := range b {
		r := &s.recs[id]
		if v := &s.vars[r.dst]; v.uses == 0 && r.kind == ir.OpShift && v.def == id {
			key := readKey(r.x, r.k)
			s.orphanReads[key]++
			s.offered = append(s.offered, key)
			continue
		}
		b[kept] = id
		kept++
	}
	return b[:kept]
}

// fuseShiftChains composes same-direction shift pairs in body bi and its
// nested bodies, in program order: X = A >> a feeding Y = X >> b becomes
// Y = A >> (a+b) (and likewise for lookbacks), Figure 8's "merged after the
// last AND". Mixed directions do not compose exactly on bounded streams. The
// inner shift stays for any other users and is orphaned if unused.
func (rb *rebalancer) fuseShiftChains(bi int32) (fused int) {
	s := rb.scratch
	for _, id := range s.bodies[bi] {
		switch r := &s.recs[id]; r.kind {
		case ir.OpShift:
			if x, k, ok := rb.retarget(r.x, r.k, 1); ok {
				r.x, r.k = x, k+r.k
				fused++
			}
		case kWhile:
			fused += rb.fuseShiftChains(r.x)
		}
	}
	return fused
}

// fuseOffered composes the orphan reads on offer after the live statements:
// nothing reads an orphan, so when it composes changes nothing else, and
// orphans of one source and direction compose alike, so they move as a count.
func (rb *rebalancer) fuseOffered() (fused int) {
	s := rb.scratch
	offered := s.offered
	s.offered = offered[:0]
	for _, key := range offered {
		n, src := s.orphanReads[key], key>>1
		if n == 0 {
			continue
		}
		if x, k, ok := rb.retarget(src, 1-2*(key&1), n); ok {
			// Offered again next round, as the statements would be walked again.
			to := readKey(x, k)
			s.orphanReads[key] = 0
			s.orphanReads[to] += n
			s.offered = append(s.offered, to)
			fused += int(n)
		}
	}
	return fused
}

// retarget returns the source and distance of the shift defining src when a
// shift of src in k's direction composes with it, moving n reads onto them.
func (rb *rebalancer) retarget(src, k, n int32) (int32, int32, bool) {
	s := rb.scratch
	d := s.vars[src].def
	if d < 0 {
		return 0, 0, false
	}
	inner := &s.recs[d]
	// Mixed directions do not compose exactly.
	if inner.kind != ir.OpShift || s.vars[inner.x].def == redefined || (inner.k > 0) != (k > 0) {
		return 0, 0, false
	}
	s.vars[src].uses -= n
	s.vars[inner.x].uses += n
	return inner.x, inner.k, true
}

// Bits of scratch.mark, per variable with a single definition.
const (
	markPinned = 1 << iota // defined in a body containing guards
	markDead
)

// eliminateDeadCode marks the assignments whose results are never read
// (transitively, by a worklist over use counts), keeping outputs, conditions
// and guard sources alive. It returns how many assignments rewrites minted.
func (rb *rebalancer) eliminateDeadCode() (minted int) {
	s := rb.scratch
	nv := rb.p.NumVars
	// Count again over what is left: lifted orphans read nothing now.
	s.vars = grown(s.vars[:0], nv, outsideRun)
	s.mark = grown(s.mark[:0], nv, 0)
	minted = rb.recount(0)
	for _, o := range rb.p.Outputs {
		s.vars[o.Var].uses++
	}
	// A variable assigned more than once (loop-carried) is kept: its
	// assignments may feed each other.
	removable := func(v int32) bool { return s.vars[v].uses == 0 && s.vars[v].def >= 0 && s.mark[v] == 0 }
	stack := s.stack[:0]
	for v := range int32(nv) {
		if removable(v) {
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.mark[v]&markDead != 0 {
			continue
		}
		s.mark[v] |= markDead
		r := &s.recs[s.vars[v].def]
		ops := [2]int32{r.x, r.y}
		for _, u := range ops[:r.operands()] {
			s.vars[u].uses--
			if removable(u) {
				stack = append(stack, u)
			}
		}
	}
	s.stack = stack
	return minted
}

// recount counts the reads and definitions of body bi and its nested bodies,
// pins guarded bodies' definitions, and returns how many records were minted.
func (rb *rebalancer) recount(bi int32) (minted int) {
	s := rb.scratch
	for _, id := range s.bodies[bi] {
		r := &s.recs[id]
		rb.count(id, r)
		switch {
		case r.kind == kWhile:
			minted += rb.recount(r.x)
		case r.kind < kWhile && s.guarded[bi]:
			s.mark[r.dst] |= markPinned
		}
		if int(id) >= len(s.stmts) {
			minted++
		}
	}
	return minted
}

// writeBack writes the live statements back into the program — converted
// ones updated in place, minted ones from one slab — and renames the
// variables densely in order of first appearance: Rebalance alone mints
// variables after lowering, most of them dead by now, and everything
// downstream sizes its tables by NumVars.
func (rb *rebalancer) writeBack(minted int) {
	rb.p.NumVars = 0
	slab := make([]ir.Assign, minted)
	rb.p.Stmts = rb.write(0, rb.p.Stmts, &slab)
	for i := range rb.p.Outputs {
		rb.p.Outputs[i].Var = ir.VarID(rb.rename(int32(rb.p.Outputs[i].Var)))
	}
}

// rename returns v's dense name, kept in at (-1 after the fixpoint).
func (rb *rebalancer) rename(v int32) int32 {
	at := &rb.vars[v].at
	if *at < 0 {
		*at = int32(rb.p.NumVars)
		rb.p.NumVars++
	}
	return *at
}

// write renames body bi's live records and writes them back into list.
func (rb *rebalancer) write(bi int32, list []ir.Stmt, slab *[]ir.Assign) []ir.Stmt {
	s := rb.scratch
	list = slices.Grow(list[:0], len(s.bodies[bi]))
	for _, id := range s.bodies[bi] {
		r := &s.recs[id]
		if s.mark[r.dst]&markDead != 0 { // never a condition: it has a read
			continue
		}
		if n := r.operands(); n > 0 {
			r.x = rb.rename(r.x)
			if n > 1 {
				r.y = rb.rename(r.y)
			}
		}
		r.dst = rb.rename(r.dst)
		var st ir.Stmt
		if int(id) < len(s.stmts) {
			st = s.stmts[id]
		} else {
			st, *slab = &(*slab)[0], (*slab)[1:]
		}
		switch x := st.(type) {
		case *ir.Assign:
			x.Dst, x.Expr = ir.VarID(r.dst), ir.Expr{Op: r.kind, X: ir.VarID(r.x), Y: ir.VarID(r.y), K: r.k}
		case *ir.While:
			x.Cond, x.Body = ir.VarID(r.dst), rb.write(r.x, x.Body, slab)
		case *ir.Guard:
			x.Cond = ir.VarID(r.dst)
		}
		list = append(list, st)
	}
	return list
}
