package kernel

import (
	"strings"
	"testing"

	"bitgen/internal/charclass"
	"bitgen/internal/gpusim"
	"bitgen/internal/ir"
	"bitgen/internal/lower"
	"bitgen/internal/rx"
	"bitgen/internal/transpose"
)

func TestLookbackShiftAllModes(t *testing.T) {
	// Hand-written lookback (<<): the rebalancer emits these, so the
	// executors must handle negative shifts with right-margin overlap.
	b := ir.NewBuilder()
	sa := b.MatchClass(charclass.Single('a'))
	sb := b.MatchClass(charclass.Single('b'))
	look := b.Emit(ir.Expr{Op: ir.OpShift, X: sb, K: -2}) // b two positions ahead
	out := b.And(sa, look)
	b.Output("re", out)
	p := b.Program()
	input := strings.Repeat("a.b.", 30)
	basis := transpose.Transpose([]byte(input))
	want := interpRef(t, p, basis)["re"]
	for _, mode := range allModes {
		res, err := Run(p, basis, Config{Grid: tinyGrid, Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !res.Outputs["re"].Equal(want) {
			t.Errorf("%v: lookback diverges:\n got  %s\n want %s", mode, res.Outputs["re"], want)
		}
	}
}

func TestNestedLoopsAcrossBlocks(t *testing.T) {
	// Star-of-star via bounded repetition of a starred group: nested
	// whiles in the window executor.
	input := strings.Repeat("xabababy", 20) + "x" + strings.Repeat("ab", 90) + "y"
	checkAllModes(t, "x((ab)*y){1,2}", input, tinyGrid)
}

func TestManyGroupsOneProgramWindows(t *testing.T) {
	// A group program with many outputs sharing classes, across an input
	// larger than one default block.
	regexes := []lower.Regex{}
	for _, p := range []string{"abc", "bcd", "cde", "a.c", "b+c", "c{2,3}d"} {
		regexes = append(regexes, lower.Regex{Name: p, AST: rx.MustParse(p)})
	}
	prog, err := lower.Group(regexes, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(strings.Repeat("abcdeccdbbc", 2000))
	basis := transpose.Transpose(input)
	want := interpRef(t, prog, basis)
	res, err := Run(prog, basis, Config{Grid: gpusim.DefaultGrid(), Mode: ModeDTM})
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if !res.Outputs[name].Equal(w) {
			t.Errorf("%s diverges on default grid", name)
		}
	}
	if res.Stats.Windows < 2 {
		t.Errorf("expected multiple windows, got %d", res.Stats.Windows)
	}
}

func TestInputExactlyOneBlock(t *testing.T) {
	// Input length == block bits: a single full window, no margins.
	input := strings.Repeat("ab", tinyGrid.BlockBits()/2)
	checkAllModes(t, "ab", input, tinyGrid)
}

func TestInputOneByteOverBlock(t *testing.T) {
	input := strings.Repeat("ab", tinyGrid.BlockBits()/2) + "c"
	checkAllModes(t, "bc", input, tinyGrid)
}
