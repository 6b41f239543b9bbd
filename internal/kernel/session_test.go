package kernel

import (
	"context"
	"slices"
	"strings"
	"testing"

	"bitgen/internal/arena"
	"bitgen/internal/charclass"
	"bitgen/internal/faultinject"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/transpose"
)

// TestSessionReuseMatchesFreshSession is the reuse contract: whatever a
// session retains between runs (plan, analyses, compiled segments, stream
// and window buffers) is invisible — the Nth Run on a reused session equals
// the first Run on a fresh one in outputs and CTAStats.
func TestSessionReuseMatchesFreshSession(t *testing.T) {
	cases := []struct {
		pattern string
		inputs  []string
	}{
		{"cat|dog", []string{
			strings.Repeat("the cat sat on the dog ", 12),
			strings.Repeat("no animals in this one. ", 12),
			strings.Repeat("catdogcat ", 25),
		}},
		{"a(bc)*d", []string{
			"ad " + strings.Repeat("abcbcd ", 15),
			strings.Repeat("abcd", 40),
		}},
		{"x.?y", []string{
			strings.Repeat("xy xay xaby ", 10),
			strings.Repeat("zzz", 40) + "xy",
		}},
	}
	for _, mode := range allModes {
		for _, c := range cases {
			p := lower.MustSingle("re", c.pattern)
			cfg := Config{Grid: tinyGrid, Mode: mode}
			a := &arena.Arena{}
			reused, err := newTestSession(p, cfg, a)
			if err != nil {
				t.Fatal(err)
			}
			for _, input := range c.inputs {
				basis := transpose.Transpose([]byte(input))
				fresh, err := newTestSession(p, cfg, a)
				if err != nil {
					t.Fatal(err)
				}
				want, wantStats, err := runStreams(fresh, basis)
				if err != nil {
					t.Fatalf("%v fresh session %q: %v", mode, c.pattern, err)
				}
				outs, stats, err := runStreams(reused, basis)
				if err != nil {
					t.Fatalf("%v reused session %q: %v", mode, c.pattern, err)
				}
				for i, o := range p.Outputs {
					if !outs[i].Equal(want[i]) {
						t.Fatalf("%v %q input %q: output %s diverges from a fresh session",
							mode, c.pattern, input, o.Name)
					}
				}
				if stats != wantStats {
					t.Errorf("%v %q: reused session stats %+v != fresh session stats %+v",
						mode, c.pattern, stats, wantStats)
				}
				fresh.Close()
			}
			reused.Close()
			if err := a.CheckBalanced(); err != nil {
				t.Fatalf("%v %q: %v", mode, c.pattern, err)
			}
		}
	}
}

// TestExecutorServesEveryProgram is the sharing contract of a scan worker:
// one executor runs programs of different sizes and grids in turn over inputs
// whose length changes from round to round, and every run equals, outputs and
// CTAStats, the same run on a session with an executor of its own. One
// program overflows the overlap limit on its first run: its session re-plans,
// and the compiled forms of the others — and the one it shared — stay as
// they were.
func TestExecutorServesEveryProgram(t *testing.T) {
	cases := slices.Concat(handpickedCases(), gridCases(), sparseCases(t)) // Base, DTM− and DTM plans
	cases = append(cases, pinnedCase{label: "fallback", prog: lower.MustSingle("re", "ab*c"),
		input: []byte("a" + strings.Repeat("b", 2000) + "c abc"), cfg: Config{Grid: tinyGrid, Mode: ModeDTM}})
	// V is defined only in a loop no window enters: every read of it is of an
	// absent register, which a run must not find left over from the last.
	b := ir.NewBuilder()
	ca, cc := b.MatchClass(charclass.Single('a')), b.MatchClass(charclass.Single('c'))
	v, once := b.NewVar(), b.Emit(ir.Expr{Op: ir.OpCopy, X: cc})
	b.While(once, func() {
		b.EmitTo(v, ir.Expr{Op: ir.OpCopy, X: ca})
		b.EmitTo(once, ir.Expr{Op: ir.OpZero})
	})
	b.Output("re", b.Or(b.Advance(v, 1), ca))
	absent := pinnedCase{label: "absent", prog: b.Program(), input: []byte(strings.Repeat("ab ", 90)), cfg: Config{Grid: tinyGrid, Mode: ModeDTM}}
	for i := range cases {
		cases = slices.Insert(cases, 2*i+1, absent)
	}
	a := &arena.Arena{}
	shared := NewExecutor(a)
	sessions, own, forms := make([]*Session, len(cases)), make([]testSession, len(cases)), make([]*compiled, len(cases))
	for i, c := range cases {
		var err error
		if sessions[i], err = Compile(c.prog, c.cfg); err != nil {
			t.Fatal(err)
		}
		if own[i], err = newTestSession(c.prog, c.cfg, a); err != nil {
			t.Fatal(err)
		}
		forms[i] = sessions[i].compiled
	}
	ctx := context.Background()
	for round, cut := range []int{1, 3, 2, 1} {
		for i, c := range cases {
			basis := transpose.Transpose(c.input[:len(c.input)*(4-cut)/3])
			outs, stats, err := sessions[i].Run(ctx, shared, basis)
			if err != nil {
				t.Fatalf("%s, round %d: %v", c.label, round, err)
			}
			want, wantStats, err := own[i].Run(ctx, basis)
			if err != nil {
				t.Fatalf("%s, round %d: %v", c.label, round, err)
			}
			for o := range want {
				if !slices.Equal(outs[o], want[o]) {
					t.Fatalf("%s, round %d: output %d on the shared executor\n %v\nwant\n %v", c.label, round, o, outs[o], want[o])
				}
			}
			if stats != wantStats {
				t.Fatalf("%s, round %d: the shared executor charges\n %+v\nits own\n %+v", c.label, round, stats, wantStats)
			}
		}
	}
	for i, c := range cases {
		if fell := c.label == "fallback"; fell != (sessions[i].compiled != forms[i]) || forms[i].materialize != nil || sessions[i].Fallbacks() != own[i].Fallbacks() {
			t.Fatalf("%s: fell back %v, compiled form replaced %v, shared one's fallback set %v", c.label, fell, sessions[i].compiled != forms[i], forms[i].materialize)
		}
		own[i].Close()
	}
	shared.Close()
	if err := a.CheckBalanced(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionFallbackPersistsExact drives a carry chain past the overlap
// cap: the session takes the materialization fallback, stays exact, and
// keeps the fallback (and exactness) on subsequent runs.
func TestSessionFallbackPersistsExact(t *testing.T) {
	p := lower.MustSingle("re", "ab*c")
	cfg := Config{Grid: tinyGrid, Mode: ModeDTM}
	sess, err := newTestSession(p, cfg, &arena.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	inputs := []string{
		"a" + strings.Repeat("b", 2000) + "c",
		"abc abbbc " + strings.Repeat("x", 300),
		"a" + strings.Repeat("b", 1500) + "c",
	}
	for i, input := range inputs {
		basis := transpose.Transpose([]byte(input))
		want := interpRef(t, p, basis)["re"]
		outs, _, err := runStreams(sess, basis)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !outs[0].Equal(want) {
			t.Fatalf("run %d: session output diverges after fallback", i)
		}
	}
	if sess.Fallbacks() == 0 {
		t.Fatal("expected a materialized fallback segment")
	}
}

// TestReadBackOutputMatchesInterpreter: an output a later segment reads keeps
// its global stream and is compacted from it at the end of the run; one only
// its own segment reads is compacted window by window, with no global. AC is
// read back after the loop in DTM−, in Base (a shift of its own) and in DTM
// once the loop falls back, not in plain DTM; TWICE is defined in two
// segments in Base, in one in the others. Every output must equal the
// interpreter's, on a second run too, also when its only word is the input's
// last, partial one.
func TestReadBackOutputMatchesInterpreter(t *testing.T) {
	b := ir.NewBuilder()
	a, c := b.MatchClass(charclass.Single('a')), b.MatchClass(charclass.Single('c'))
	ac := b.And(b.Advance(a, 1), c)
	b.Output("ac", ac)
	m, acc := b.NewVar(), b.NewVar()
	b.EmitTo(m, ir.Expr{Op: ir.OpCopy, X: ac})
	b.EmitTo(acc, ir.Expr{Op: ir.OpCopy, X: ac})
	b.While(m, func() {
		b.EmitTo(m, ir.Expr{Op: ir.OpAnd, X: b.Advance(m, 1), Y: c})
		b.EmitTo(acc, ir.Expr{Op: ir.OpOr, X: acc, Y: m})
	})
	b.Output("acc", acc)
	b.Output("next", b.Or(b.Advance(ac, 1), acc))
	twice := b.NewVar() // defined by a fused segment, then, in Base, by a shift of its own
	b.EmitTo(twice, ir.Expr{Op: ir.OpCopy, X: ac})
	b.EmitTo(twice, ir.Expr{Op: ir.OpShift, X: ac, K: 2})
	b.Output("twice", twice)
	p := b.Program()

	inputs := []string{strings.Repeat("xacc yac acccc z ", 20), strings.Repeat("x", 298) + "ac"}
	for _, plan := range []struct {
		name     string
		mode     Mode
		fallback bool
	}{{"DTM", ModeDTM, false}, {"DTM-", ModeDTMStatic, false}, {"Base", ModeBase, false}, {"DTM, fallen back", ModeDTM, true}} {
		cfg := Config{Grid: tinyGrid, Mode: plan.mode}
		if plan.fallback {
			cfg.Inject = faultinject.New(5).ArmNth(faultinject.ForceFallback, 1)
		}
		sess, err := newTestSession(p, cfg, &arena.Arena{})
		if err != nil {
			t.Fatal(err)
		}
		for _, input := range append(inputs, inputs...) {
			basis := transpose.Transpose([]byte(input))
			want := interpRef(t, p, basis)
			outs, _, err := runStreams(sess, basis)
			if err != nil {
				t.Fatalf("%s: %v", plan.name, err)
			}
			for i, o := range p.Outputs {
				if !outs[i].Equal(want[o.Name]) {
					t.Fatalf("%s, %d-byte input: output %s diverges from the interpreter:\n got  %s\n want %s",
						plan.name, len(input), o.Name, outs[i], want[o.Name])
				}
			}
		}
		if readBack := plan.name != "DTM"; sess.isMat[ac] != readBack || sess.Fallbacks() != len(sess.materialize) || plan.fallback != (sess.Fallbacks() == 1) {
			t.Fatalf("%s: AC materialized %v, want %v; %d fallbacks", plan.name, sess.isMat[ac], readBack, sess.Fallbacks())
		}
		sess.Close()
	}
}

// TestSessionSteadyStateZeroAllocs is the arena contract: once warmed, a
// session run over a same-sized chunk allocates nothing.
func TestSessionSteadyStateZeroAllocs(t *testing.T) {
	p := lower.MustSingle("re", "cat|dog")
	cfg := Config{Grid: tinyGrid, Mode: ModeDTM, HonorGuards: true}
	sess, err := newTestSession(p, cfg, &arena.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	input := []byte(strings.Repeat("the cat sat on the dog ", 40))
	basis := transpose.Transpose(input)
	ctx := context.Background()
	// Warm every retained buffer.
	if _, _, err := sess.Run(ctx, basis); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := sess.Run(ctx, basis); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state session Run allocates %v per run, want 0", allocs)
	}
}
