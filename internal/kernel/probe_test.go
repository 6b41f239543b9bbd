package kernel

import (
	"context"
	"slices"
	"strings"
	"testing"

	"bitgen/internal/arena"
	"bitgen/internal/charclass"
	"bitgen/internal/gpusim"
	"bitgen/internal/ir"
	"bitgen/internal/transpose"
)

// wholeWindow runs all of prog over the window [cs-dl, ce+dr) from a register
// file with every register absent: a real pass when charge is set, a probe of
// the whole window when saturate is — what the probe was before it forked.
func wholeWindow(ex *Executor, prog *sbProgram, cs, ce, dl, dr int, saturate, charge bool) error {
	ex.openWindow(cs, ce, dl, dr)
	ex.saturate = saturate
	return ex.execSBProg(prog, charge)
}

// probeCount tallies the probes checkProbes compared.
type probeCount struct{ probes, disagreed, forkSaved int }

// checkProbes runs s over basis as Session.Run does, but walks each forked
// segment's windows itself: at every overlap the fixpoint tries on a window it
// probes, the suffix probe (Executor.probe) must reach the verdict, committed
// words and culprit of wholeWindow's probe from a reset register file. Each
// window then commits through runWindowToFixpoint. An overflow ends the walk:
// the fallback's plan is another compile.
func checkProbes(t *testing.T, label string, s testSession, basis *transpose.Basis, n *probeCount) {
	t.Helper()
	ex := s.ex
	ex.reset(context.Background(), s.compiled, basis, s.cfg.withDefaults(basis.N))
	block := ex.cfg.Grid.BlockBits()
	for i, node := range s.pl.nodes {
		seg, ok := node.(*fusedSeg)
		if !ok || seg.fork == nil || ex.n == 0 {
			if err := ex.execNode(node); err != nil {
				return
			}
			for _, v := range s.drop[i] {
				ex.release(v)
			}
			continue
		}
		an, liveOut := seg.an, seg.liveOut
		ex.curAnalysis = an
		n.forkSaved = max(n.forkSaved, len(seg.fork.save))
		dynamic := an.HasDynamic || an.HasCarry
		baseDL, dr := align64(an.StaticMaxAdvance), align64(-an.StaticMinOffset)
		dl := baseDL
		for cs := 0; cs < ex.n; cs += block {
			ce := min(cs+block, ex.n)
			if dl > baseDL {
				dl = max(baseDL, align64(dl/2))
			}
			for try := dl; dynamic; {
				if err := ex.execWindowOnce(seg, cs, ce, try, dr); err != nil {
					t.Fatalf("%s: real pass at cs %d: %v", label, cs, err)
				}
				if ex.needBits > try {
					var err error
					if try, err = ex.growOverlap(try, cs); err != nil {
						break
					}
					continue
				}
				if try >= cs {
					break
				}
				lo, hi := (cs-ex.ws)/64, (ce+63)/64-ex.ws/64
				ex.saveCommitted(liveOut, lo, hi)
				real := slices.Clone(ex.probeWords[:(hi-lo)*len(liveOut)])
				if err := ex.probe(seg); err != nil {
					t.Fatalf("%s: probe at cs %d: %v", label, cs, err)
				}
				got, gotCulprit := committedAll(ex, liveOut, lo, hi), ex.culprit
				agrees := ex.probeAgrees(liveOut, lo, hi)
				if err := wholeWindow(ex, seg.sprog, cs, ce, try, dr, true, false); err != nil {
					t.Fatalf("%s: whole-window probe at cs %d: %v", label, cs, err)
				}
				want := committedAll(ex, liveOut, lo, hi)
				n.probes++
				if wantAgrees := slices.Equal(want, real); agrees != wantAgrees || !slices.Equal(got, want) || gotCulprit != ex.culprit {
					t.Fatalf("%s: window [%d, %d) at overlap %d: the suffix probe agrees %v, the whole-window probe %v; committed words equal %v, culprits equal %v",
						label, cs, ce, try, agrees, wantAgrees, slices.Equal(got, want), gotCulprit == ex.culprit)
				}
				if agrees {
					break
				}
				n.disagreed++
				var err error
				if try, err = ex.growOverlap(try, cs); err != nil {
					break
				}
			}
			committed, err := ex.runWindowToFixpoint(seg, cs, ce, dl, dr, dynamic, liveOut)
			if err != nil {
				return
			}
			dl = committed
		}
	}
}

// committedAll returns every live-out's committed words [lo, hi), one after another.
func committedAll(ex *Executor, liveOut []ir.VarID, lo, hi int) []uint64 {
	var w []uint64
	for _, v := range liveOut {
		w = append(w, ex.committedWords(v, lo, hi)...)
	}
	return w
}

// forkProgram is the fork's adversary: a first loop inside the skip range of a
// guard, where the fork moves back to; m and acc, which the loop carries, and v
// assigned before the fork, v XORed with acc after it, so a stale acc or v
// shows in v; a guard after the loop on the a's no marker reached, over w's
// definition — the real pass computes w wherever an unseeded run of a's
// crosses the commit boundary, the probe, whose flooded margin marks that run,
// skips it; and d, a shift left deferred before the fork (two readers, no loop
// around it) that the loop's AND-NOT forces after it.
func forkProgram() *ir.Program {
	b := ir.NewBuilder()
	sx, sa, sb := b.MatchClass(charclass.Single('x')), b.MatchClass(charclass.Single('a')), b.MatchClass(charclass.Single('b'))
	v, m, acc := b.NewVar(), b.NewVar(), b.NewVar()
	b.EmitTo(v, ir.Expr{Op: ir.OpCopy, X: sa})
	d := b.Advance(sb, 2)
	b.EmitTo(m, ir.Expr{Op: ir.OpCopy, X: sx})
	b.EmitTo(acc, ir.Expr{Op: ir.OpZero})
	b.While(m, func() {
		n := b.AndNot(b.And(b.Advance(m, 1), sa), acc)
		b.EmitTo(acc, ir.Expr{Op: ir.OpOr, X: acc, Y: n})
		b.EmitTo(m, ir.Expr{Op: ir.OpAndNot, X: n, Y: d})
	})
	b.EmitTo(v, ir.Expr{Op: ir.OpXor, X: v, Y: acc})
	c := b.AndNot(sa, acc)
	w := b.Emit(ir.Expr{Op: ir.OpCopy, X: c})
	b.Output("acc", acc)
	b.Output("v", v)
	b.Output("w", b.Or(w, d))
	p := b.Program()
	// No a in the window: the loop leaves acc and m zero. No unmarked a: w is.
	at := slices.IndexFunc(p.Stmts, func(s ir.Stmt) bool { _, ok := s.(*ir.While); return ok })
	p.Stmts = slices.Insert(p.Stmts, at, ir.Stmt(&ir.Guard{Cond: sa, Skip: 1}))
	at = slices.IndexFunc(p.Stmts, func(s ir.Stmt) bool { a, ok := s.(*ir.Assign); return ok && a.Dst == w })
	p.Stmts = slices.Insert(p.Stmts, at, ir.Stmt(&ir.Guard{Cond: c, Skip: 1}))
	return p
}

// forkInput lays out n bytes on tiny-grid windows (128 bytes a block, a
// 64-byte left overlap to start): a run of a's over 100–140 that no x seeds,
// across the second window's commit boundary; x's seeding short runs at 20 and
// at 240, the second across the third boundary (each iteration of the loop
// grows its overlap by 2 bits, and a run longer than 32 would push it past the
// block limit, onto the fallback); b's here and there, one at 150 so d is set
// in the second window's commit range.
func forkInput(n int) string {
	in := []byte(strings.Repeat("z", n))
	for i := range in {
		switch {
		case i == 20 || i == 240:
			in[i] = 'x'
		case i > 20 && i <= 25 || i >= 100 && i <= 140 || i > 240 && i <= 262:
			in[i] = 'a'
		case i == 30 || i == 60 || i == 150 || i == 285:
			in[i] = 'b'
		}
	}
	return string(in)
}

// TestForkedProbeOnAnAdversary runs forkProgram over one, two and three block
// windows and holds every output to the interpreter.
func TestForkedProbeOnAnAdversary(t *testing.T) {
	for _, n := range []int{100, 200, 300} {
		s := runHandBuilt(t, forkProgram(), forkInput(n))
		seg := s.pl.nodes[0].(*fusedSeg)
		nodes := seg.sprog.nodes
		if f := seg.fork; f == nil || nodes[f.node].kind != sbGuardNode || nodes[f.node+1].kind != sbWhileNode || len(f.save) != 3 || len(f.drop) == 0 {
			t.Fatalf("%d bytes: the fork %+v; want it at the guard over the loop, saving v, m and acc", n, f)
		}
	}
}

// TestSuffixProbeMatchesWholeWindowProbe holds the probe that resumes at the
// fork to the probe of the whole window from a reset register file — verdict,
// committed words and culprit — at every overlap of every probed window: the
// groups of the ten generators at scale 0.05, the four stream_light patterns
// and the 500-signature megaset over 40 KiB (three windows of the default
// grid), then hand-built loops whose probe must disagree: forkProgram and a
// marker chain seeded before the window that crosses its commit boundary.
func TestSuffixProbeMatchesWholeWindowProbe(t *testing.T) {
	grid := gpusim.DefaultGrid()
	var n probeCount
	for _, app := range generatorApps(t, 40<<10) {
		basis := transpose.Transpose(app.Input)
		progs, _ := groupPrograms(t, app, basis, grid)
		for _, p := range progs {
			s, err := newTestSession(p, Config{Grid: grid, Mode: ModeDTM, HonorGuards: true}, &arena.Arena{})
			if err != nil {
				t.Fatal(err)
			}
			checkProbes(t, app.Name, s, basis, &n)
			s.Close()
		}
	}
	t.Logf("generators: %d probes, %d disagreed, at most %d registers saved at a fork", n.probes, n.disagreed, n.forkSaved)
	if n.probes == 0 {
		t.Fatal("no generator group was probed")
	}

	hand := []struct {
		label string
		prog  *ir.Program
		input string
	}{
		{"fork adversary", forkProgram(), forkInput(300)},
		{"seeded before the window", chainProgram(), strings.Repeat("z", 150) + "x" + strings.Repeat("a", 200) + "z"},
	}
	for _, h := range hand {
		var hn probeCount
		s, err := newTestSession(h.prog, Config{Grid: tinyGrid, Mode: ModeDTM, HonorGuards: true}, &arena.Arena{})
		if err != nil {
			t.Fatal(err)
		}
		checkProbes(t, h.label, s, transpose.Transpose([]byte(h.input)), &hn)
		s.Close()
		if hn.disagreed == 0 {
			t.Fatalf("%s: %d probes, none disagreed", h.label, hn.probes)
		}
	}
}

// chainProgram marks the run of a's behind each x, one a per iteration.
func chainProgram() *ir.Program {
	b := ir.NewBuilder()
	sx, sa := b.MatchClass(charclass.Single('x')), b.MatchClass(charclass.Single('a'))
	m, acc := b.NewVar(), b.NewVar()
	b.EmitTo(m, ir.Expr{Op: ir.OpCopy, X: sx})
	b.EmitTo(acc, ir.Expr{Op: ir.OpZero})
	b.While(m, func() {
		b.EmitTo(m, ir.Expr{Op: ir.OpAnd, X: b.Advance(m, 1), Y: sa})
		b.EmitTo(acc, ir.Expr{Op: ir.OpOr, X: acc, Y: m})
	})
	b.Output("run", acc)
	return b.Program()
}
