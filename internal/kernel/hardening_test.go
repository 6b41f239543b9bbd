package kernel

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"bitgen/internal/arena"
	"bitgen/internal/bgerr"
	"bitgen/internal/charclass"
	"bitgen/internal/faultinject"
	"bitgen/internal/gpusim"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/transpose"
)

// spinProgram builds a while loop whose condition never clears: without a
// cap or cancellation it iterates forever.
func spinProgram() *ir.Program {
	p := &ir.Program{}
	c := p.NewVar()
	p.Stmts = []ir.Stmt{
		&ir.Assign{Dst: c, Expr: ir.Expr{Op: ir.OpOnes}},
		&ir.While{Cond: c, Body: []ir.Stmt{
			&ir.Assign{Dst: c, Expr: ir.Expr{Op: ir.OpOnes}},
		}},
	}
	p.Outputs = []ir.Output{{Name: "spin", Var: c}}
	return p
}

func TestWhileCapReturnsTypedLimitError(t *testing.T) {
	p := spinProgram()
	basis := transpose.Transpose([]byte("0123456789abcdef"))
	_, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeBase, MaxWhileIterations: 8})
	if err == nil {
		t.Fatal("spin program with cap 8 returned no error")
	}
	if !errors.Is(err, bgerr.ErrLimit) {
		t.Fatalf("error %v does not satisfy errors.Is(_, bgerr.ErrLimit)", err)
	}
	var le *bgerr.LimitError
	if !errors.As(err, &le) || le.Limit != "while-iterations" {
		t.Fatalf("error %v is not a while-iterations LimitError", err)
	}
}

func TestCancellationInterruptsSpinPromptly(t *testing.T) {
	p := spinProgram()
	basis := transpose.Transpose([]byte("0123456789abcdef"))
	// A cap this large would spin for many minutes; cancellation must cut
	// it short at a while-iteration boundary.
	cfg := Config{Grid: tinyGrid, Mode: ModeBase, MaxWhileIterations: 1 << 30}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, p, basis, cfg)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("canceled spin returned no error")
	}
	if !errors.Is(err, bgerr.ErrCanceled) {
		t.Fatalf("error %v does not satisfy errors.Is(_, bgerr.ErrCanceled)", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not unwrap to context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — not prompt", elapsed)
	}
}

func TestCancellationBeforeRunWindowed(t *testing.T) {
	p := lower.MustSingle("re", "a(bc)*d")
	basis := transpose.Transpose([]byte("abcbcbcd"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, p, basis, Config{Grid: tinyGrid, Mode: ModeDTM})
	if !errors.Is(err, bgerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v", err)
	}
}

func TestInjectedWhileCapTripsRegardlessOfBound(t *testing.T) {
	p := lower.MustSingle("re", "x(de)*y")
	input := "x" + "dedededede" + "y"
	basis := transpose.Transpose([]byte(input))
	inj := faultinject.New(3).ArmNth(faultinject.WhileCap, 1)
	_, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeBase, Inject: inj})
	if !errors.Is(err, bgerr.ErrLimit) {
		t.Fatalf("injected while-cap returned %v, want ErrLimit", err)
	}
	if inj.Fired(faultinject.WhileCap) == 0 {
		t.Fatal("while-cap point never fired")
	}
}

func TestInjectedForceFallbackStaysExact(t *testing.T) {
	p := lower.MustSingle("re", "x(de)*y")
	input := "x" + "dededede" + "y - padding so several windows run - mmmm"
	basis := transpose.Transpose([]byte(input))
	want := interpRef(t, p, basis)["re"]
	inj := faultinject.New(11).ArmNth(faultinject.ForceFallback, 1)
	res, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeDTM, Inject: inj})
	if err != nil {
		t.Fatalf("forced fallback errored: %v", err)
	}
	if res.FallbackSegments == 0 {
		t.Fatal("forced fallback did not materialize any segment")
	}
	if !res.Outputs["re"].Equal(want) {
		t.Fatal("forced fallback changed the match results")
	}
	if inj.Fired(faultinject.ForceFallback) == 0 {
		t.Fatal("force-fallback point never fired")
	}
}

// TestFallbackMaterializesAPrologueLoad is the overlap fallback that
// materializes a load a class prologue left to bind on first read: S = b8
// heads a one-pair prologue, and a loop that reads S, pushed onto the
// materialized path by an injected overflow, makes S cross a segment
// boundary. The rebuilt plan must drop S's mark (compiled.loadBit): a stale one
// binds S's basis view in the loop body without the DRAM read of the
// committed stream. The run after the fallback must match the interpreter and
// charge what a session built on that plan from the start charges.
func TestFallbackMaterializesAPrologueLoad(t *testing.T) {
	b := ir.NewBuilder()
	s := b.Emit(ir.Expr{Op: ir.OpBasis, K: transpose.NumBasis})
	m, acc := b.NewVar(), b.NewVar()
	b.EmitTo(m, ir.Expr{Op: ir.OpCopy, X: s})
	b.EmitTo(acc, ir.Expr{Op: ir.OpCopy, X: m})
	b.While(m, func() {
		b.EmitTo(m, ir.Expr{Op: ir.OpAnd, X: b.Advance(m, 1), Y: s})
		b.EmitTo(acc, ir.Expr{Op: ir.OpOr, X: acc, Y: m})
	})
	b.Output("re", acc)
	p := b.Program()
	p.ExtBits = 1
	// What the guard skips is zero where S is: acc only ever holds S's bits.
	p.Stmts = slices.Insert(p.Stmts, 1, ir.Stmt(&ir.Guard{Cond: s, Skip: len(p.Stmts) - 1}))
	loop := p.Stmts[len(p.Stmts)-1]

	basis := transpose.Transpose([]byte(strings.Repeat("aaab xaab yyyyyyyy zzzzzzzzzzzzzz ", 12)))
	basis.Ext = append(basis.Ext, charclass.MatchStream(charclass.Single('a'), basis))
	want := interpRef(t, p, basis)["re"]
	inj := faultinject.New(11).ArmNth(faultinject.ForceFallback, 1)
	cfg := Config{Grid: tinyGrid, Mode: ModeDTM, HonorGuards: true, Inject: inj}
	fell, err := newTestSession(p, cfg, &arena.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	defer fell.Close()
	cfg.Inject = nil
	planned, err := newTestSession(p, cfg, &arena.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	defer planned.Close()
	planned.compiled = compile(p, planned.an, cfg.Mode, map[ir.Stmt]bool{loop: true})
	var stats [2]gpusim.CTAStats
	for i, sess := range []testSession{fell, planned} {
		outs, st, err := runStreams(sess, basis)
		if err != nil {
			t.Fatal(err)
		}
		if !outs[0].Equal(want) {
			t.Fatalf("session %d: output diverges from the interpreter:\n got  %s\n want %s", i, outs[0], want)
		}
		stats[i] = st
	}
	if fell.Fallbacks() != 1 || !fell.isMat[s] || fell.loadBit[s] > 0 {
		t.Fatalf("after the fallback: %d fallbacks, S%d materialized %v, marked to bind on first read %v; want 1, true, false",
			fell.Fallbacks(), s, fell.isMat[s], fell.loadBit[s] > 0)
	}
	if stats[0] != stats[1] {
		t.Fatalf("the run after the fallback charges\n %+v\na session planned so from the start\n %+v", stats[0], stats[1])
	}
}

// TestPrologueLoadDefinedTwiceStaysEager: V is defined in a loop that runs
// once where C is, in one segment, where W = V | C reads it — as absent, so
// zero, in a window the loop does not enter — and then by a prologue's load
// in a later one, the two split by a loop on the materialized path. V crosses no segment boundary, and in its second segment
// it is defined once, but it must not be left to bind on first read: the
// first segment would read the basis view there instead of zero, from the
// second run of the session on.
func TestPrologueLoadDefinedTwiceStaysEager(t *testing.T) {
	b := ir.NewBuilder()
	a, c := b.MatchClass(charclass.Single('a')), b.MatchClass(charclass.Single('c'))
	v, m, once := b.NewVar(), b.NewVar(), b.Emit(ir.Expr{Op: ir.OpCopy, X: c})
	b.While(once, func() {
		b.EmitTo(v, ir.Expr{Op: ir.OpCopy, X: a})
		b.EmitTo(once, ir.Expr{Op: ir.OpZero})
	})
	w := b.Or(v, c)
	b.EmitTo(m, ir.Expr{Op: ir.OpCopy, X: a})
	b.While(m, func() { b.EmitTo(m, ir.Expr{Op: ir.OpAnd, X: b.Advance(m, 1), Y: a}) })
	loop := b.Program().Stmts[len(b.Program().Stmts)-1]
	b.EmitTo(v, ir.Expr{Op: ir.OpBasis, K: transpose.NumBasis})
	z := b.And(v, a)
	b.Output("re", b.Or(w, z))
	p := b.Program()
	p.ExtBits = 1
	at := slices.IndexFunc(p.Stmts, func(st ir.Stmt) bool {
		x, ok := st.(*ir.Assign)
		return ok && x.Expr == ir.Expr{Op: ir.OpBasis, K: transpose.NumBasis}
	})
	p.Stmts = slices.Insert(p.Stmts, at+1, ir.Stmt(&ir.Guard{Cond: v, Skip: 1}))

	basis := transpose.Transpose([]byte(strings.Repeat("ab bb xb ac ba bb yy bb ", 10)))
	basis.Ext = append(basis.Ext, charclass.MatchStream(charclass.Single('b'), basis))
	want := interpRef(t, p, basis)["re"]
	sess, err := newTestSession(p, Config{Grid: tinyGrid, Mode: ModeDTM, HonorGuards: true}, &arena.Arena{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.compiled = compile(p, sess.an, ModeDTM, map[ir.Stmt]bool{loop: true})
	for run := 0; run < 2; run++ {
		outs, _, err := runStreams(sess, basis)
		if err != nil {
			t.Fatal(err)
		}
		if !outs[0].Equal(want) {
			t.Fatalf("run %d: output diverges from the interpreter:\n got  %s\n want %s", run, outs[0], want)
		}
	}
	if len(sess.pl.nodes) != 3 || sess.isMat[v] || sess.loadBit[v] > 0 {
		t.Fatalf("%d plan nodes, S%d materialized %v, marked to bind on first read %v; want 3, false, false",
			len(sess.pl.nodes), v, sess.isMat[v], sess.loadBit[v] > 0)
	}
}

// TestPrologueLoadsThatMustBindEagerly: a prologue's load may be left to
// bind on first read only when nothing can see the register before that
// read. Not when it is an output — its guard skips Y = 0, so nothing reads
// it and the window would commit zero — and not when it is defined twice,
// here V = A read by W before the load V = b8 rewrites it: V & A would read
// the old V. Both run on windows of whole lines where 'b' is in every
// one, so the set test does take its fast path.
func TestPrologueLoadsThatMustBindEagerly(t *testing.T) {
	for _, shape := range []string{"output", "defined twice"} {
		b := ir.NewBuilder()
		a, c := b.MatchClass(charclass.Single('a')), b.MatchClass(charclass.Single('c'))
		v := b.NewVar()
		var w ir.VarID
		if shape == "defined twice" {
			b.EmitTo(v, ir.Expr{Op: ir.OpCopy, X: a})
			w = b.Or(v, c)
		}
		once := b.Emit(ir.Expr{Op: ir.OpCopy, X: c})
		b.While(once, func() { b.EmitTo(once, ir.Expr{Op: ir.OpZero}) }) // the load is a node of its own
		b.EmitTo(v, ir.Expr{Op: ir.OpBasis, K: transpose.NumBasis})
		y := b.Emit(ir.Expr{Op: ir.OpZero})
		if shape == "output" {
			b.Output("v", v)
			b.Output("re", y)
		} else {
			b.Output("w", w)
			b.Output("re", b.And(v, a))
		}
		p := b.Program()
		p.ExtBits = 1
		at := slices.IndexFunc(p.Stmts, func(st ir.Stmt) bool {
			x, ok := st.(*ir.Assign)
			return ok && x.Expr == ir.Expr{Op: ir.OpBasis, K: transpose.NumBasis}
		})
		p.Stmts = slices.Insert(p.Stmts, at+1, ir.Stmt(&ir.Guard{Cond: v, Skip: 1}))

		basis := transpose.Transpose([]byte(strings.Repeat("ab ba cab bb ", 400)))
		basis.Ext = append(basis.Ext, charclass.MatchStream(charclass.Single('b'), basis))
		presenceRows(basis)
		want := interpRef(t, p, basis)
		sess, err := newTestSession(p, Config{Grid: prologueGrid, Mode: ModeDTM, HonorGuards: true}, &arena.Arena{})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		outs, _, err := runStreams(sess, basis)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range p.Outputs {
			if !outs[i].Equal(want[o.Name]) {
				t.Fatalf("%s: output %s diverges from the interpreter:\n got  %s\n want %s", shape, o.Name, outs[i], want[o.Name])
			}
		}
		if sess.loadBit[v] > 0 {
			t.Fatalf("%s: S%d is marked to bind on first read", shape, v)
		}
	}
}

func TestInjectedTileCorruptionIsContained(t *testing.T) {
	p := lower.MustSingle("re", "cat")
	input := "the cat sat on the catalog and another cat appeared late"
	basis := transpose.Transpose([]byte(input))
	want := interpRef(t, p, basis)["re"]

	inj := faultinject.New(21).ArmNth(faultinject.TileCorrupt, 1)
	res, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeDTM, Inject: inj})
	if err != nil {
		t.Fatalf("corrupted run errored instead of completing: %v", err)
	}
	if inj.Fired(faultinject.TileCorrupt) == 0 {
		t.Fatal("tile-corrupt point never fired")
	}
	if res.Outputs["re"].Equal(want) {
		t.Fatal("corrupted tile produced bit-identical outputs — injection had no effect")
	}

	// The fault is contained to the poisoned run: a clean run of the same
	// program is exact.
	clean, err := Run(p, basis, Config{Grid: tinyGrid, Mode: ModeDTM})
	if err != nil {
		t.Fatalf("clean rerun errored: %v", err)
	}
	if !clean.Outputs["re"].Equal(want) {
		t.Fatal("clean rerun diverges from interpreter")
	}
}
