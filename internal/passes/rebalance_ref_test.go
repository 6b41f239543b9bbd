package passes

// The Rebalance of commit 0976809, kept as the oracle of the pass that
// replaced it: rounds that re-count the whole program (analyze per round),
// orphaned statements left in their bodies until one dead-code sweep after
// the last round, no renumbering. Only the names changed (ref prefix) and the
// scratch is a fresh one per call instead of the pooled one.

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"bitgen/internal/charclass"
	"bitgen/internal/dfg"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/rx"
	"bitgen/internal/workload"
)

func rebalanceReference(p *ir.Program) RebalanceResult {
	n := 0
	ir.WalkStmts(p.Stmts, func(ir.Stmt) { n++ })
	maxIterations := 4*n + 64
	rb := &refRebalancer{p: p, scratch: new(scratch)}
	var res RebalanceResult
	for round := 0; round < maxIterations; round++ {
		res.Iterations++
		if _, changed := rb.round(&res); !changed {
			break
		}
	}
	// Rewrites leave the original single-use shifts dead; sweep them.
	rb.refEliminateDeadCode(p)
	return res
}

// refRebalancer holds the per-round analysis state in pooled scratch, so a
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
type refRebalancer struct {
	p *ir.Program
	*scratch
}

// round runs one fixpoint round — recount global uses and re-record
// definitions, rewrite every run, fuse shift chains — and reports how many
// shifts it fused and whether anything changed.
func (rb *refRebalancer) round(res *RebalanceResult) (fused int, changed bool) {
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
func (rb *refRebalancer) body(body *[]ir.Stmt, res *RebalanceResult) bool {
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
func (rb *refRebalancer) rewriteRun(stmts []ir.Stmt, base int, res *RebalanceResult) {
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
func (rb *refRebalancer) tryRewrite(run []*ir.Assign, idx int, shiftVar, other ir.VarID) bool {
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
func (rb *refRebalancer) fuseShiftChains() int {
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
	refMarkPinned = 1 << iota // defined in a body containing guards
	refMarkDead
)

// eliminateDeadCode removes assignments whose results are never read
// (transitively), keeping outputs, conditions and guard sources alive.
// It returns the number of statements removed. The transitive closure is
// computed with a worklist over use counts — one pass regardless of dead-
// chain depth — instead of sweeping to a fixpoint.
func (s *scratch) refEliminateDeadCode(p *ir.Program) int {
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
					mark[x.Dst] |= refMarkPinned
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
		if mark[v]&refMarkDead != 0 {
			continue
		}
		mark[v] |= refMarkDead
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
		refSweepDead(&p.Stmts, mark)
	}
	return dead
}

// refSweepDead drops the dead assignments from every body. Pinned (guarded)
// assignments were never marked, so guard skip counts stay aligned.
func refSweepDead(body *[]ir.Stmt, mark []uint8) {
	kept := (*body)[:0]
	for _, s := range *body {
		switch x := s.(type) {
		case *ir.Assign:
			if mark[x.Dst]&refMarkDead != 0 {
				continue
			}
		case *ir.If:
			refSweepDead(&x.Body, mark)
		case *ir.While:
			refSweepDead(&x.Body, mark)
		}
		kept = append(kept, s)
	}
	*body = kept
}

// canonical renders a program with its variables renamed in order of first
// appearance: two programs equal up to renaming have equal canonical forms.
func canonical(p *ir.Program) []int {
	id := make(map[ir.VarID]int)
	v := func(x ir.VarID) int {
		n, ok := id[x]
		if !ok {
			n = len(id)
			id[x] = n
		}
		return n
	}
	var out []int
	var walk func(body []ir.Stmt)
	walk = func(body []ir.Stmt) {
		for _, s := range body {
			switch x := s.(type) {
			case *ir.Assign:
				switch e := x.Expr.(type) {
				case ir.Zero:
					out = append(out, 'Z')
				case ir.Ones:
					out = append(out, 'O')
				case ir.MatchBasis:
					out = append(out, 'M', e.Bit)
				case ir.Copy:
					out = append(out, 'C', v(e.Src))
				case ir.Not:
					out = append(out, 'N', v(e.Src))
				case ir.Bin:
					out = append(out, 'B', int(e.Op), v(e.X), v(e.Y))
				case ir.Shift:
					out = append(out, 'S', v(e.Src), e.K)
				case ir.Add:
					out = append(out, 'A', v(e.X), v(e.Y))
				case ir.StarThru:
					out = append(out, 'T', v(e.M), v(e.C))
				default:
					panic("canonical: unknown expression")
				}
				out = append(out, v(x.Dst))
			case *ir.If:
				out = append(out, 'I', v(x.Cond), len(x.Body))
				walk(x.Body)
			case *ir.While:
				out = append(out, 'W', v(x.Cond), len(x.Body))
				walk(x.Body)
			case *ir.Guard:
				out = append(out, 'G', v(x.Cond), x.Skip)
			}
		}
	}
	walk(p.Stmts)
	for _, o := range p.Outputs {
		out = append(out, 'o', v(o.Var))
	}
	return append(out, len(id))
}

// checkAgainstReference rebalances p with the pass and a clone of it with the
// reference, and requires the same result: same programs up to renaming, same
// rewrite and round counts — and, of the pass alone, a dense variable space
// numbered in order of first appearance.
func checkAgainstReference(t *testing.T, name string, p *ir.Program) {
	t.Helper()
	ref := p.Clone()
	want := rebalanceReference(ref)
	got := Rebalance(p, RebalanceOptions{})
	if got != want {
		t.Errorf("%s: pass reports %+v, reference %+v", name, got, want)
	}
	cp, cr := canonical(p), canonical(ref)
	if !slices.Equal(cp, cr) {
		t.Errorf("%s: program differs from the reference's (%d vs %d canonical words)", name, len(cp), len(cr))
		if len(cp)+len(cr) < 4000 {
			t.Logf("pass:\n%s\nreference:\n%s", p, ref)
		}
	}
	if named := cp[len(cp)-1]; p.NumVars != named {
		t.Errorf("%s: NumVars %d for %d variables named", name, p.NumVars, named)
	}
	next := ir.VarID(0)
	ir.WalkStmts(p.Stmts, func(s ir.Stmt) {
		if a, ok := s.(*ir.Assign); ok && a.Dst >= next {
			if a.Dst != next {
				t.Fatalf("%s: S%d defined where S%d is the next fresh variable", name, a.Dst, next)
			}
			next++
		}
	})
	if err := ir.Validate(p); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// checkGroups lowers regexes in consecutive groups of size and checks each.
func checkGroups(t *testing.T, name string, regexes []lower.Regex, size int, opts lower.Options) {
	t.Helper()
	for i := 0; i < len(regexes); i += size {
		group := regexes[i:min(i+size, len(regexes))]
		p, err := lower.Group(group, opts)
		if err != nil {
			t.Fatalf("%s group %d: %v", name, i/size, err)
		}
		checkAgainstReference(t, fmt.Sprintf("%s/size%d/group%d", name, size, i/size), p)
	}
}

func TestRebalanceEqualsReferenceOnGenerators(t *testing.T) {
	t.Parallel()
	for _, app := range workload.Names() {
		for _, scale := range []float64{0.01, 0.05} {
			a, err := workload.Load(app, workload.Options{RegexScale: scale, InputBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{1, 2, 8, 39} {
				checkGroups(t, fmt.Sprintf("%s@%v", app, scale), a.Regexes, size, lower.Options{})
			}
		}
	}
}

// The megaset in groups the size the engine's 256 CTAs give it: two patterns
// at 500, thirty-nine at 10 000.
func TestRebalanceEqualsReferenceOnMegaset(t *testing.T) {
	t.Parallel()
	counts := []int{500}
	if !testing.Short() {
		counts = append(counts, 10000)
	}
	for _, n := range counts {
		a, err := workload.Megaset(n, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkGroups(t, fmt.Sprintf("Megaset%d", n), a.Regexes, (n+255)/256, lower.Options{})
	}
}

// engineGroups mirrors engine.Compile's grouping — partition's greedy
// longest-name-first packing into at most 256 CTA groups and initShared's
// choice of the classes two or more groups expand — which internal/engine
// does not export and this package cannot import.
func engineGroups(regexes []lower.Regex) (groups [][]lower.Regex, opts lower.Options) {
	const ctas, maxShared = 256, 256
	n := min(ctas, len(regexes))
	order := make([]int, len(regexes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(regexes[order[a]].Name) > len(regexes[order[b]].Name) })
	groups = make([][]lower.Regex, n)
	chars := make([]int, n)
	for _, idx := range order {
		best := 0
		for g := 1; g < n; g++ {
			if chars[g] < chars[best] {
				best = g
			}
		}
		groups[best] = append(groups[best], regexes[idx])
		chars[best] += len(regexes[idx].Name)
	}
	if n < 2 {
		return groups, opts
	}
	counts := make(map[charclass.Class]int)
	var order2 []charclass.Class
	for _, g := range groups {
		for _, cl := range lower.Classes(g) {
			if counts[cl] == 0 {
				order2 = append(order2, cl)
			}
			counts[cl]++
		}
	}
	slots := make(map[charclass.Class]int)
	for _, cl := range order2 {
		if counts[cl] >= 2 && len(slots) < maxShared {
			slots[cl] = len(slots)
		}
	}
	if len(slots) > 0 {
		opts.SharedCC, opts.SharedExtBits = slots, len(slots)
	}
	return groups, opts
}

// TestRebalanceEqualsReferenceUnderSharedClasses is the configuration in which
// deleting orphaned shifts outright — instead of keeping their reads counted —
// diverged from the reference: group programs lowered against the engine's
// shared character classes. The two named cases are groups that did.
func TestRebalanceEqualsReferenceUnderSharedClasses(t *testing.T) {
	t.Parallel()
	named := map[string]bool{}
	for _, app := range workload.Names() {
		for _, scale := range []float64{0.01, 0.05} {
			a, err := workload.Load(app, workload.Options{RegexScale: scale, InputBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			groups, opts := engineGroups(a.Regexes)
			for gi, g := range groups {
				p, err := lower.Group(g, opts)
				if err != nil {
					t.Fatalf("%s@%v group %d: %v", app, scale, gi, err)
				}
				checkAgainstReference(t, fmt.Sprintf("%s@%v/shared/group%d", app, scale, gi), p)
				if app == "Protomata" && scale == 0.01 && gi == 0 {
					named["Protomata group 0"] = true
				}
				for _, r := range g {
					if app == "Bro217" && scale == 0.05 && r.Name == "post/qxisswqsz" {
						named[r.Name] = true
					}
				}
			}
		}
	}
	if len(named) != 2 {
		t.Errorf("named cases covered: %v, want Protomata group 0 and Bro217 post/qxisswqsz", named)
	}
}

// The seeds of internal/lower's FuzzLower (it keeps no corpus on disk), lowered
// as it lowers them.
func TestRebalanceEqualsReferenceOnFuzzLowerCorpus(t *testing.T) {
	patterns := []string{"a(bc)*d", "x(y|z)?w", "a{0,3}b", "(a*)*", "((a|b)*c){2}", "\\x41+"}
	for _, pat := range patterns {
		ast, err := rx.Parse(pat)
		if err != nil {
			t.Fatal(err)
		}
		p, err := lower.Group([]lower.Regex{{Name: "f", AST: ast}}, lower.Options{MaxUnroll: 2000})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, fmt.Sprintf("FuzzLower %q", pat), p)
	}
}

// TestRebalanceLeavesGuardedBodiesWhole: a body that already holds a guard
// keeps every statement through the rounds and the sweep (skip counts), so an
// orphaned shift there is walked in place like the reference walks it; the
// same body without the guard loses it.
func TestRebalanceLeavesGuardedBodiesWhole(t *testing.T) {
	build := func(guarded bool) *ir.Program {
		b := ir.NewBuilder()
		a := b.MatchClass(charclass.Single('a'))
		c := b.MatchClass(charclass.Single('b'))
		deep := b.And(b.Not(b.Not(a)), a) // deeper than c: the rewrite is profitable
		out := b.NewVar()
		b.EmitTo(out, ir.Zero{})
		b.If(a, func() {
			s := b.Advance(deep, 1)
			s2 := b.Advance(b.And(s, c), 2)
			b.EmitTo(out, ir.Bin{Op: ir.OpAnd, X: s2, Y: c})
		})
		b.Output("ab.b", out)
		p := b.Program()
		if guarded {
			body := &p.Stmts[len(p.Stmts)-1].(*ir.If).Body
			*body = append([]ir.Stmt{&ir.Guard{Cond: a, Skip: 1}}, *body...)
		}
		return p
	}
	count := func(p *ir.Program) (n int) {
		ir.WalkStmts(p.Stmts, func(ir.Stmt) { n++ })
		return n
	}
	for _, guarded := range []bool{false, true} {
		p := build(guarded)
		before := count(p)
		ref := p.Clone()
		checkAgainstReference(t, fmt.Sprintf("guarded=%v", guarded), p)
		if rebalanceReference(ref).Rewrites == 0 {
			t.Fatalf("guarded=%v: nothing rewritten, nothing orphaned", guarded)
		}
		if after := count(p); guarded && after <= before {
			t.Errorf("guarded body shrank or stood still: %d -> %d statements", before, after)
		}
	}
}
