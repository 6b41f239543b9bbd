package ir

import (
	"strings"
	"testing"

	"bitgen/internal/charclass"
	"bitgen/internal/transpose"
)

// buildFigure3 hand-builds the paper's Figure 3 program for /(abc)|d/, its
// if (S6) as the zero-block guard that skips the body and zeroes S8.
func buildFigure3() *Program {
	b := NewBuilder()
	s1 := b.MatchClass(charclass.Single('a'))
	s2 := b.MatchClass(charclass.Single('b'))
	s3 := b.MatchClass(charclass.Single('c'))
	s4 := b.MatchClass(charclass.Single('d'))
	s5 := b.Advance(s1, 1)
	s6 := b.And(s5, s2) // ab
	*b.top() = append(*b.top(), &Guard{Cond: s6, Skip: 2})
	s7 := b.Advance(s6, 1)
	s8 := b.And(s7, s3) // abc
	s9 := b.Or(s8, s4)  // abc|d
	b.Output("(abc)|d", s9)
	return b.Program()
}

func TestFigure3Program(t *testing.T) {
	p := buildFigure3()
	if err := Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	basis := transpose.Transpose([]byte("abcdabce"))
	res, err := Interpret(p, basis, InterpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 3 (b): S9 = ..11..1.
	if got := res.Outputs["(abc)|d"].String(); got != "..11..1." {
		t.Fatalf("S9 = %q, want %q", got, "..11..1.")
	}
}

func TestFigure3IfNotTaken(t *testing.T) {
	// With no "ab" anywhere, the guard skips the if body and S8 is zero.
	p := buildFigure3()
	basis := transpose.Transpose([]byte("axdxxaxc"))
	res, err := Interpret(p, basis, InterpOptions{HonorGuards: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["(abc)|d"].String(); got != "..1....." {
		t.Fatalf("S9 = %q, want only the d match", got)
	}
	if res.Stats.GuardSkips != 1 {
		t.Fatalf("GuardSkips = %d, want the body skipped", res.Stats.GuardSkips)
	}
}

// buildKleene hand-builds the Listing 3 program for /a(bc)*d/.
func buildKleene() *Program {
	b := NewBuilder()
	sa := b.MatchClass(charclass.Single('a'))
	sb := b.MatchClass(charclass.Single('b'))
	sc := b.MatchClass(charclass.Single('c'))
	sd := b.MatchClass(charclass.Single('d'))
	s1 := b.NewVar()
	b.EmitTo(s1, Expr{Op: OpCopy, X: sa})
	s10 := b.NewVar()
	b.EmitTo(s10, Expr{Op: OpCopy, X: s1})
	b.While(s1, func() {
		s5 := b.Advance(s1, 1)
		s6 := b.And(sb, s5)
		s7 := b.Advance(s6, 1)
		s8 := b.And(sc, s7)
		s9 := b.Not(s10)
		b.EmitTo(s1, Expr{Op: OpAnd, X: s8, Y: s9})
		b.EmitTo(s10, Expr{Op: OpOr, X: s10, Y: s8})
	})
	s11 := b.Advance(s10, 1)
	s12 := b.And(sd, s11)
	b.Output("a(bc)*d", s12)
	return b.Program()
}

func TestListing3KleeneStar(t *testing.T) {
	p := buildKleene()
	if err := Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for input, want := range map[string]string{
		"ad":        ".1",
		"abcd":      "...1",
		"abcbcd":    ".....1",
		"abd":       "...",
		"xadabcbcd": ".........", // wrong length sentinel; replaced below
	} {
		if input == "xadabcbcd" {
			want = "..1......1" // matches end at 'd' of "ad" and of "abcbcd"
			input = "xadxabcbcd"
		}
		basis := transpose.Transpose([]byte(input))
		res, err := Interpret(p, basis, InterpOptions{})
		if err != nil {
			t.Fatalf("%q: %v", input, err)
		}
		if got := res.Outputs["a(bc)*d"].String(); got != want {
			t.Errorf("input %q: got %q, want %q", input, got, want)
		}
	}
}

// TestLastReadsCountsBodyReadsAtTheirStatement pins the liveness rule
// Interpret frees streams by: a read inside a while body is the loop's
// read, so a stream the loop reads stays live for every iteration.
func TestLastReadsCountsBodyReadsAtTheirStatement(t *testing.T) {
	b := NewBuilder()
	x := b.Emit(Expr{Op: OpOnes})       // 1
	y := b.Emit(Expr{Op: OpZero})       // 2
	m := b.Emit(Expr{Op: OpCopy, X: x}) // 3
	b.While(m, func() {                 // 4
		b.EmitTo(m, Expr{Op: OpAnd, X: m, Y: y})
	})
	z := b.Emit(Expr{Op: OpNot, X: x}) // 5
	b.Output("z", z)
	p := b.Program()
	last := LastReads(p.Stmts, p.NumVars)
	for v, want := range map[VarID]int32{x: 5, y: 4, m: 4, z: 0} {
		if last[v] != want {
			t.Errorf("LastReads[S%d] = %d, want %d", v, last[v], want)
		}
	}
	res, err := Interpret(p, transpose.Transpose([]byte("abc")), InterpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["z"].String(); got != "..." {
		t.Errorf("z = %q, want ...", got)
	}
}

func TestWhileLoopIterationCap(t *testing.T) {
	// while(ones) { nothing changes } must hit the iteration cap.
	b := NewBuilder()
	v := b.Emit(Expr{Op: OpOnes})
	b.While(v, func() {
		b.EmitTo(v, Expr{Op: OpCopy, X: v})
	})
	b.Output("x", v)
	p := b.Program()
	basis := transpose.Transpose([]byte("abc"))
	if _, err := Interpret(p, basis, InterpOptions{MaxWhileIterations: 10}); err == nil {
		t.Fatal("non-terminating loop did not error")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	// Use before definition.
	p := &Program{NumVars: 2}
	p.Stmts = []Stmt{&Assign{Dst: 0, Expr: Expr{Op: OpCopy, X: 1}}}
	if err := Validate(p); err == nil {
		t.Error("use-before-def not caught")
	}
	// Out-of-range output.
	p = &Program{NumVars: 1, Stmts: []Stmt{&Assign{Dst: 0, Expr: Expr{Op: OpZero}}}}
	p.Outputs = []Output{{Name: "x", Var: 5}}
	if err := Validate(p); err == nil {
		t.Error("out-of-range output not caught")
	}
	// Zero-distance shift.
	p = &Program{NumVars: 2, Stmts: []Stmt{
		&Assign{Dst: 0, Expr: Expr{Op: OpZero}},
		&Assign{Dst: 1, Expr: Expr{Op: OpShift, X: 0, K: 0}},
	}}
	if err := Validate(p); err == nil {
		t.Error("zero shift not caught")
	}
	// Guard skipping past end of body.
	p = &Program{NumVars: 1, Stmts: []Stmt{
		&Assign{Dst: 0, Expr: Expr{Op: OpZero}},
		&Guard{Cond: 0, Skip: 3},
	}}
	if err := Validate(p); err == nil {
		t.Error("oversized guard not caught")
	}
}

func TestGuardEquivalence(t *testing.T) {
	// A guard over a genuine zero path: honoring it must not change results.
	b := NewBuilder()
	sa := b.MatchClass(charclass.Single('a'))
	sz := b.MatchClass(charclass.Single('z')) // absent from input: all-zero
	g := b.NewVar()
	b.EmitTo(g, Expr{Op: OpCopy, X: sz})
	// Zero path: t1 = g >> 1; t2 = t1 & sa; out = t2 | sa
	*b.top() = append(*b.top(), &Guard{Cond: g, Skip: 2})
	t1 := b.Advance(g, 1)
	t2 := b.And(t1, sa)
	out := b.Or(t2, sa)
	b.Output("out", out)
	p := b.Program()
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
	basis := transpose.Transpose([]byte("aqaqa"))
	plain, err := Interpret(p, basis, InterpOptions{HonorGuards: false})
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := Interpret(p, basis, InterpOptions{HonorGuards: true})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Outputs["out"].Equal(guarded.Outputs["out"]) {
		t.Fatalf("guarded output %q != plain %q",
			guarded.Outputs["out"], plain.Outputs["out"])
	}
	if guarded.Stats.GuardSkips != 1 {
		t.Fatalf("GuardSkips = %d, want 1", guarded.Stats.GuardSkips)
	}
}

func TestCollectStats(t *testing.T) {
	p := buildKleene()
	st := CollectStats(p)
	if st.While != 1 {
		t.Errorf("While count = %d, want 1", st.While)
	}
	if st.Shift != 3 {
		t.Errorf("Shift count = %d, want 3 (two in loop, one after)", st.Shift)
	}
	if st.And == 0 || st.Not == 0 || st.Or == 0 {
		t.Errorf("unexpected zero counts: %+v", st)
	}
	if st.Total() != st.And+st.Or+st.Not+st.Xor+st.Shift+st.While {
		t.Error("Total inconsistent")
	}
}

func TestPrintStyle(t *testing.T) {
	p := buildKleene()
	text := p.String()
	for _, want := range []string{"while (S", ">> 1", "# output a(bc)*d"} {
		if !strings.Contains(text, want) {
			t.Errorf("printout missing %q:\n%s", want, text)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := buildFigure3()
	q := p.Clone()
	// Mutate the clone's first assignment; original must be unaffected.
	for _, s := range q.Stmts {
		if a, ok := s.(*Assign); ok {
			a.Dst = VarID(p.NumVars - 1)
			break
		}
	}
	var origFirst *Assign
	for _, s := range p.Stmts {
		if a, ok := s.(*Assign); ok {
			origFirst = a
			break
		}
	}
	if origFirst.Dst == VarID(p.NumVars-1) && p.NumVars > 1 {
		t.Fatal("Clone shares Assign nodes with original")
	}
}

func TestBuilderCachesClasses(t *testing.T) {
	b := NewBuilder()
	v1 := b.MatchClass(charclass.Single('a'))
	n := len(b.prog.Stmts)
	v2 := b.MatchClass(charclass.Single('a'))
	if v1 != v2 {
		t.Fatal("identical classes not cached")
	}
	if len(b.prog.Stmts) != n {
		t.Fatalf("the cached class emitted %d more statements", len(b.prog.Stmts)-n)
	}
}

func TestMatchBasisOutOfRangeCaught(t *testing.T) {
	p := &Program{NumVars: 1, Stmts: []Stmt{&Assign{Dst: 0, Expr: Expr{Op: OpBasis, K: 9}}}}
	if err := Validate(p); err == nil {
		t.Fatal("basis bit out of range not caught")
	}
}
