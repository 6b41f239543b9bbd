package dfg

import (
	"testing"

	"bitgen/internal/charclass"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
)

// buildStraight builds: B4 = ((B1 >> 1) & B2 >> 1) & B3 — Figure 7 (a)'s
// two-right-shift chain with Δ = 2.
func buildFigure7a() *ir.Program {
	b := ir.NewBuilder()
	b1 := b.MatchClass(charclass.Single('a'))
	b2 := b.MatchClass(charclass.Single('b'))
	b3 := b.MatchClass(charclass.Single('c'))
	s5 := b.Advance(b1, 1)
	s6 := b.And(s5, b2)
	s7 := b.Advance(s6, 1)
	s4 := b.And(s7, b3)
	b.Output("abc", s4)
	return b.Program()
}

func TestStaticDeltaFigure7a(t *testing.T) {
	a := Analyze(buildFigure7a())
	if a.StaticDelta != 2 {
		t.Fatalf("StaticDelta = %d, want 2", a.StaticDelta)
	}
	if a.StaticMaxAdvance != 2 || a.StaticMinOffset != 0 {
		t.Fatalf("split = (%d, %d), want (2, 0)", a.StaticMaxAdvance, a.StaticMinOffset)
	}
	if a.HasDynamic {
		t.Fatal("straight-line program flagged dynamic")
	}
}

func TestMixedDirectionDelta(t *testing.T) {
	// b = a >> 1; c = b << 2: δ sequence {0, 1, -1}, Δ = 2 (Section 4.2's
	// second example).
	p := &ir.Program{NumVars: 3}
	p.Stmts = []ir.Stmt{
		&ir.Assign{Dst: 0, Expr: ir.MatchBasis{Bit: 0}},
		&ir.Assign{Dst: 1, Expr: ir.Shift{Src: 0, K: 1}},
		&ir.Assign{Dst: 2, Expr: ir.Shift{Src: 1, K: -2}},
	}
	a := Analyze(p)
	if a.StaticDelta != 2 {
		t.Fatalf("StaticDelta = %d, want 2", a.StaticDelta)
	}
	if a.StaticMaxAdvance != 1 || a.StaticMinOffset != -1 {
		t.Fatalf("split = (%d, %d), want (1, -1)", a.StaticMaxAdvance, a.StaticMinOffset)
	}
}

func TestSingleClassStarUsesCarryNotLoop(t *testing.T) {
	// a(b)*c: the class star compiles to the fused MatchStar (carry)
	// instruction, so there is no while loop — the reason Table 5 shows
	// tiny dynamic Δ for dot-star-heavy applications.
	p := lower.MustSingle("re", "a(b)*c")
	a := Analyze(p)
	if a.HasDynamic {
		t.Fatalf("class star produced a dynamic while loop\n%s", p)
	}
	if !a.HasCarry {
		t.Fatal("class star did not use a carry instruction")
	}
	if st := ir.CollectStats(p); st.While != 0 || st.Star != 1 {
		t.Fatalf("stats = %+v, want Star=1 While=0", st)
	}
}

func TestLoopGrowthMultiCharBody(t *testing.T) {
	// (bc)* advances two positions per loop iteration.
	p := lower.MustSingle("re", "a(bc)*d")
	a := Analyze(p)
	total := 0
	for _, g := range a.LoopGrowth {
		total += g
	}
	if total != 2 {
		t.Fatalf("loop growth = %d, want 2\n%s", total, p)
	}
}

func TestBoundedRepeatIsStatic(t *testing.T) {
	// a{2,5} unrolls: no loops, Δ grows with the unrolled length.
	p := lower.MustSingle("re", "a{2,5}")
	a := Analyze(p)
	if a.HasDynamic {
		t.Fatal("bounded repetition flagged dynamic")
	}
	if a.StaticDelta != 4 {
		t.Fatalf("StaticDelta = %d, want 4 (five chars reach back four)\n%s", a.StaticDelta, p)
	}
}

func TestDepthsChainVsBalanced(t *testing.T) {
	// Chain: s1 >> 1 & s2, result >> 1 & s3 — depths strictly increase.
	p := buildFigure7a()
	var assigns []*ir.Assign
	ir.WalkStmts(p.Stmts, func(s ir.Stmt) {
		if a, ok := s.(*ir.Assign); ok {
			assigns = append(assigns, a)
		}
	})
	last := assigns[len(assigns)-1]
	if d := VarDepthsInto(nil, assigns, p.NumVars)[last.Dst]; d < 4 {
		t.Fatalf("final depth = %d, want >= 4 (chain shape)", d)
	}
}

func TestZeroPreservingUse(t *testing.T) {
	v := ir.VarID(3)
	cases := []struct {
		e    ir.Expr
		want bool
	}{
		{ir.Shift{Src: v, K: 1}, true},
		{ir.Copy{Src: v}, true},
		{ir.Bin{Op: ir.OpAnd, X: v, Y: 9}, true},
		{ir.Bin{Op: ir.OpAnd, X: 9, Y: v}, true},
		{ir.Bin{Op: ir.OpAndNot, X: v, Y: 9}, true},
		{ir.Bin{Op: ir.OpAndNot, X: 9, Y: v}, false},
		{ir.Bin{Op: ir.OpOr, X: v, Y: 9}, false},
		{ir.Bin{Op: ir.OpXor, X: v, Y: 9}, false},
		{ir.Not{Src: v}, false},
		{ir.Shift{Src: 9, K: 1}, false},
	}
	for _, c := range cases {
		if got := ZeroPreservingUse(c.e, v); got != c.want {
			t.Errorf("ZeroPreservingUse(%s, S3) = %v, want %v", ir.ExprString(c.e), got, c.want)
		}
	}
}

func TestZeroPathsFigure10Shape(t *testing.T) {
	// Mimics Figure 10: a chain of shift/and feeding an OR (which ends the
	// path because OR is not zero-preserving).
	//   s0 = cc0; s1 = cc1; s2 = cc2
	//   t0 = s0 >> 1        (head: chain via t0)
	//   t1 = t0 & s1
	//   t2 = t1 >> 1
	//   t3 = t2 & s2
	//   out = t3 | s0       (not on path)
	b := ir.NewBuilder()
	s0 := b.MatchClass(charclass.Single('a'))
	s1 := b.MatchClass(charclass.Single('b'))
	s2 := b.MatchClass(charclass.Single('c'))
	t0 := b.Advance(s0, 1)
	t1 := b.And(t0, s1)
	t2 := b.Advance(t1, 1)
	t3 := b.And(t2, s2)
	out := b.Or(t3, s0)
	b.Output("re", out)
	p := b.Program()

	var run []*ir.Assign
	for _, s := range p.Stmts {
		run = append(run, s.(*ir.Assign))
	}
	paths := new(PathFinder).ZeroPaths(run, p.NumVars)
	if len(paths) == 0 {
		t.Fatalf("no zero paths found in\n%s", p)
	}
	// The longest path must cover the t0..t3 chain (4 statements
	// following the head that defines s0's advance source or s0 itself).
	best := paths[0]
	for _, pth := range paths {
		if len(pth.Stmts) > len(best.Stmts) {
			best = pth
		}
	}
	if len(best.Stmts) < 3 {
		t.Fatalf("longest zero path has %d statements, want >= 3: %+v", len(best.Stmts), best)
	}
	// The OR must not be on any path.
	orIdx := len(run) - 1
	for _, pth := range paths {
		for _, idx := range pth.Stmts {
			if idx == orIdx {
				t.Fatal("OR statement appeared on a zero path")
			}
		}
	}
	_ = t0
	_ = t1
	_ = t2
	_ = t3
	_ = out
}

func TestZeroPathsRespectRedefinition(t *testing.T) {
	// v is redefined by a non-zero-preserving op mid-run: the chain stops.
	p := &ir.Program{NumVars: 4}
	run := []*ir.Assign{
		{Dst: 0, Expr: ir.MatchBasis{Bit: 0}},
		{Dst: 1, Expr: ir.Shift{Src: 0, K: 1}}, // on chain from 0
		{Dst: 1, Expr: ir.Not{Src: 0}},         // redefines 1 (kills chain via 1)
		{Dst: 2, Expr: ir.Shift{Src: 1, K: 1}}, // uses the NOT result
		{Dst: 3, Expr: ir.Bin{Op: ir.OpAnd, X: 2, Y: 1}},
	}
	p.Stmts = []ir.Stmt{run[0], run[1], run[2], run[3], run[4]}
	paths := new(PathFinder).ZeroPaths(run, p.NumVars)
	for _, pth := range paths {
		if pth.Head == 0 {
			for _, idx := range pth.Stmts {
				if idx >= 3 {
					t.Fatalf("chain from basis crossed the redefinition: %+v", pth)
				}
			}
		}
	}
}

// TestLoopGrowthSplitsLeftFromRight: a loop that looks back on its own
// condition reads one bit further into future data each iteration — right
// growth 1, left growth 0 — while a lowered loop grows left only.
func TestLoopGrowthSplitsLeftFromRight(t *testing.T) {
	b := ir.NewBuilder()
	sx, sa := b.MatchClass(charclass.Single('x')), b.MatchClass(charclass.Single('a'))
	m := b.Emit(ir.Copy{Src: sx})
	b.While(m, func() {
		b.EmitTo(m, ir.Bin{Op: ir.OpAnd, X: b.Emit(ir.Shift{Src: m, K: -1}), Y: sa})
	})
	b.Output("run", m)
	p := b.Program()
	loop := p.Stmts[len(p.Stmts)-1].(*ir.While)
	a := Analyze(p)
	if a.LoopGrowth[loop] != 0 || a.LoopRightGrowth[loop] != 1 || a.HasDynamic {
		t.Fatalf("lookback loop: left growth %d, right growth %d, dynamic %v; want 0, 1, false",
			a.LoopGrowth[loop], a.LoopRightGrowth[loop], a.HasDynamic)
	}
	if a := Analyze(lower.MustSingle("re", "a(bc)*d")); a.LoopRightGrowth != nil {
		t.Fatalf("a lowered loop grows right: %v", a.LoopRightGrowth)
	}
}
