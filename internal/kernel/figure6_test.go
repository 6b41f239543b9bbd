package kernel

import (
	"slices"
	"strings"
	"testing"

	"bitgen/internal/charclass"
	"bitgen/internal/ir"
	"bitgen/internal/transpose"
)

// Figure 6, Example 1: B3 = B1 & B2; B4 = B3 >> 1 — naive loop fusion
// loses the last bit of the previous block's B3; dependency-aware mapping
// must recompute it. The tiny grid makes every block boundary a trap.
func TestFigure6Example1(t *testing.T) {
	b := ir.NewBuilder()
	b1 := b.MatchClass(charclass.Single('a'))
	b2 := b.MatchClass(charclass.Single('b'))
	// B3 = B1 | B2 is dense, so bits sit on every block boundary and the
	// shifted result depends on the preceding block everywhere.
	b3 := b.Or(b1, b2)
	b4 := b.Advance(b3, 1)
	b.Output("re", b4)
	p := b.Program()

	// 128-bit blocks; bit 127 set => bit 128 of the result lives in the
	// next block and depends on the previous block's value.
	input := strings.Repeat("ab", 200)
	basis := transpose.Transpose([]byte(input))
	want := interpRef(t, p, basis)["re"]
	for _, mode := range allModes {
		res, err := Run(p, basis, Config{Grid: tinyGrid, Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !res.Outputs["re"].Equal(want) {
			t.Errorf("%v: Figure 6 Example 1 hazard not resolved", mode)
		}
	}
}

// Figure 6, Example 2: a skipped zero block containing a shift. When a
// block of the guard's condition is all-zero the naive fused kernel skips
// the guarded statements, losing the bit the shift must carry in from the
// previous block.
func TestFigure6Example2(t *testing.T) {
	b := ir.NewBuilder()
	s1 := b.MatchClass(charclass.Single('x')) // sparse condition
	s2 := b.MatchClass(charclass.Single('y'))
	s3 := b.Advance(s1, 1)
	s4 := b.And(s3, s2)
	out := b.Or(s4, s2)
	b.Output("re", out)
	p := b.Program()
	at := slices.IndexFunc(p.Stmts, func(s ir.Stmt) bool { a, ok := s.(*ir.Assign); return ok && a.Dst == s3 })
	p.Stmts = slices.Insert(p.Stmts, at, ir.Stmt(&ir.Guard{Cond: s1, Skip: 2}))

	// Place 'x' as the LAST byte of a 128-bit block, with 'y' right after
	// (start of the next block): the predicated skip would lose the
	// match.
	blockBytes := tinyGrid.BlockBits()
	var sb strings.Builder
	for sb.Len() < blockBytes-1 {
		sb.WriteByte('.')
	}
	sb.WriteByte('x')
	sb.WriteByte('y') // first byte of block 2
	for sb.Len() < 3*blockBytes {
		sb.WriteByte('.')
	}
	input := sb.String()
	basis := transpose.Transpose([]byte(input))
	want := interpRef(t, p, basis)["re"]
	if !want.Test(blockBytes) {
		t.Fatalf("test setup wrong: expected xy match at block boundary\n%s", want)
	}
	for _, mode := range allModes {
		res, err := Run(p, basis, Config{Grid: tinyGrid, Mode: mode, HonorGuards: true})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Stats.GuardSkips == 0 && mode != ModeBase {
			t.Errorf("%v: no window skipped the shift", mode)
		}
		if !res.Outputs["re"].Equal(want) {
			t.Errorf("%v: Figure 6 Example 2 hazard not resolved:\n got  %s\n want %s",
				mode, res.Outputs["re"], want)
		}
	}
}
